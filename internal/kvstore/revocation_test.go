package kvstore

import (
	"bytes"
	"errors"
	"slices"
	"sort"
	"testing"

	"memfss/internal/erasure"
)

// Tests for the store/wire primitives the revocation protocol leans on:
// paged stripe listing (SCAN), compare-and-delete (DELVAL), and the typed
// ErrNoSpace classification of OOM replies.

func TestStoreKeysN(t *testing.T) {
	s := NewStore(0)
	for _, k := range []string{"data:c", "data:a", "data:b", "meta:x"} {
		if err := s.Set(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	got := s.KeysN("data:", 2)
	if len(got) != 2 || !sort.StringsAreSorted(got) {
		t.Fatalf("KeysN(2) = %v", got)
	}
	if all := s.KeysN("data:", 10); len(all) != 3 {
		t.Fatalf("KeysN(10) = %v", all)
	}
	if all := s.KeysN("data:", 0); len(all) != 3 { // n <= 0 means no limit
		t.Fatalf("KeysN(0) = %v", all)
	}
}

func TestStoreDelIfEquals(t *testing.T) {
	s := NewStore(0)
	if err := s.Set("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if s.DelIfEquals("k", []byte("other")) {
		t.Fatal("mismatched value deleted")
	}
	if v, ok, _ := s.Get("k"); !ok || !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("failed compare-and-delete mutated the key: %q %v", v, ok)
	}
	if !s.DelIfEquals("k", []byte("v1")) {
		t.Fatal("matching value not deleted")
	}
	if _, ok, _ := s.Get("k"); ok {
		t.Fatal("key survived a matching compare-and-delete")
	}
	if s.DelIfEquals("missing", []byte("v")) {
		t.Fatal("deleted a missing key")
	}
	if st := s.Stats(); st.BytesUsed != 0 {
		t.Fatalf("accounting after DelIfEquals: %d bytes", st.BytesUsed)
	}
}

func TestScanOverWire(t *testing.T) {
	_, cli := startServer(t, 0, "")
	for _, k := range []string{"data:z", "data:y", "data:x"} {
		if err := cli.Set(k, erasure.WrapShard(1, 1, []byte("v"))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Set("other", []byte("v")); err != nil {
		t.Fatal(err)
	}
	var all []string
	pages := 0
	for cursor := int64(0); ; {
		pages++
		keys, next, err := cli.Scan(cursor, 2)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, keys...)
		if cursor = next; cursor == 0 {
			break
		}
	}
	if pages != 2 || !slices.Equal(all, []string{"data:z", "data:y", "data:x"}) {
		t.Fatalf("Scan over wire = %v in %d pages, want the three stripes in write order in 2", all, pages)
	}
	for _, args := range [][]string{{"SCAN", "0"}, {"SCAN", "-1", "2"}, {"SCAN", "0", "0"}, {"SCAN", "x", "2"}} {
		if reply, err := cli.do(bs(args...)...); err != nil || reply.Err() == nil {
			t.Errorf("%v: reply %+v, %v; want an error reply", args, reply, err)
		}
	}
}

func TestDelValOverWire(t *testing.T) {
	_, cli := startServer(t, 0, "")
	if err := cli.Set("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if ok, err := cli.DelVal("k", []byte("stale")); err != nil || ok {
		t.Fatalf("stale DelVal = %v %v", ok, err)
	}
	if ok, err := cli.DelVal("k", []byte("v1")); err != nil || !ok {
		t.Fatalf("matching DelVal = %v %v", ok, err)
	}
	if _, ok, _ := cli.Get("k"); ok {
		t.Fatal("key survived DELVAL")
	}

	// Pipelined DELVAL carries the same integer contract.
	cli.Set("a", []byte("1"))
	cli.Set("b", []byte("2"))
	pl := cli.Pipeline()
	pl.DelVal("a", []byte("1"))
	pl.DelVal("b", []byte("nope"))
	replies, err := pl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if replies[0].Int != 1 || replies[1].Int != 0 {
		t.Fatalf("pipelined DELVAL = %+v %+v", replies[0], replies[1])
	}
}

// TestNoSpaceClassifiedOverWire: a capped store's OOM reply decodes as an
// ErrNoSpace-wrapped error and is NOT treated as unavailability — the
// client fails fast instead of burning its retry budget.
func TestNoSpaceClassifiedOverWire(t *testing.T) {
	_, cli := startServer(t, 300, "")
	if err := cli.Set("k", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	var st OpStat
	err := cli.SetStat("k2", make([]byte, 400), &st)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("over-cap write = %v, want ErrNoSpace", err)
	}
	if errors.Is(err, ErrUnavailable) {
		t.Fatal("ErrNoSpace must not classify as unavailability")
	}
	if st.Attempts != 1 {
		t.Fatalf("no-space write burned %d attempts, want 1 (fail fast)", st.Attempts)
	}
}
