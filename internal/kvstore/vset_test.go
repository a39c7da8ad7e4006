package kvstore

import (
	"bytes"
	"testing"

	"memfss/internal/erasure"
)

// TestVSetStampsGenerations walks one key through VSET's rules over the
// wire: an offset write on an absent key writes nothing and replies 0,
// the store stamps one past the generation it holds, a write inside the
// value lands in place, a replayed write keeps its generation, the whole
// form replaces the value, and a headerless value counts as generation 0.
// Two keys one write apart stay one apart under the same write — the
// property that keeps a copy that missed a write behind.
func TestVSetStampsGenerations(t *testing.T) {
	srv, cli := startServer(t, 0, "")
	st := srv.Store()
	check := func(step, key string, gen, wantGen, wantID uint64, wantPayload []byte) {
		t.Helper()
		raw, ok, err := st.Get(key)
		g, id, payload, perr := erasure.ParseShard(raw)
		if err != nil || !ok || perr != nil || gen != wantGen || g != wantGen || id != wantID || !bytes.Equal(payload, wantPayload) {
			t.Fatalf("%s: reply gen %d, stored (%d, %d) %q (ok=%v err=%v parse=%v); want gen %d id %d %q",
				step, gen, g, id, payload, ok, err, perr, wantGen, wantID, wantPayload)
		}
	}
	vset := func(key string, id uint64, off int64, value string) uint64 {
		t.Helper()
		gen, err := vsetBurst(cli, key, id, off, []byte(value))
		if err != nil {
			t.Fatal(err)
		}
		return gen
	}

	if gen := vset("k", 10, 4, "abc"); gen != 0 || st.Stats().NumKeys != 0 {
		t.Fatalf("offset VSET on an absent key: gen %d, %d keys; want 0 and nothing written", gen, st.Stats().NumKeys)
	}
	gen := vset("k", 11, Whole, "\x00\x00\x00\x00abc")
	check("absent key, whole", "k", gen, 1, 11, []byte("\x00\x00\x00\x00abc"))
	used := st.Stats().BytesUsed

	gen = vset("k", 12, 1, "XY")
	check("in place", "k", gen, 2, 12, []byte("\x00XY\x00abc"))
	if got := st.Stats().BytesUsed; got != used {
		t.Fatalf("in-place VSET moved BytesUsed %d -> %d", used, got)
	}
	gen = vset("k", 12, 1, "XY")
	check("replayed write", "k", gen, 2, 12, []byte("\x00XY\x00abc"))

	gen = vset("k", 13, 5, "bcdef")
	check("extending", "k", gen, 3, 13, []byte("\x00XY\x00abcdef"))

	gen = vset("k", 14, Whole, "new")
	check("whole", "k", gen, 4, 14, []byte("new"))
	if got, want := st.Stats().BytesUsed, int64(len("k")+erasure.HeaderSize+3)+EntryOverhead; got != want {
		t.Fatalf("whole VSET: BytesUsed %d, want %d", got, want)
	}

	if err := cli.Set("plain", []byte("no header")); err != nil {
		t.Fatal(err)
	}
	gen = vset("plain", 15, 0, "xy")
	check("headerless value", "plain", gen, 1, 15, []byte("xy"))

	// One write to a current copy and to one a write behind.
	ahead, behind := vset("k", 16, 0, "z"), vset("plain", 16, 0, "z")
	if ahead != 5 || behind != 2 {
		t.Fatalf("one write to copies at generations 4 and 1 stamped %d and %d", ahead, behind)
	}
}

// vsetBurst sends one VSET as a one-command pipeline burst, the way core
// ships a replica write, and returns the generation the store stamped.
func vsetBurst(c *Client, key string, id uint64, off int64, value []byte) (uint64, error) {
	pl := c.Pipeline()
	pl.VSet(key, id, off, value)
	replies, err := pl.Run()
	if err != nil {
		return 0, err
	}
	if err := replies[0].Err(); err != nil {
		return 0, err
	}
	return uint64(replies[0].Int), nil
}
