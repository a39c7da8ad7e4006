package erasure

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestShardHeaderRoundTrip(t *testing.T) {
	payload := []byte("shard payload bytes")
	wrapped := WrapShard(42, 0xdeadbeefcafef00d, payload)
	if len(wrapped) != HeaderSize+len(payload) {
		t.Fatalf("wrapped length %d, want %d", len(wrapped), HeaderSize+len(payload))
	}
	gen, id, got, err := ParseShard(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 42 || id != 0xdeadbeefcafef00d {
		t.Fatalf("gen=%d id=%#x", gen, id)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted: %q", got)
	}
}

func TestShardHeaderEmptyPayload(t *testing.T) {
	gen, id, payload, err := ParseShard(WrapShard(1, 2, nil))
	if err != nil || gen != 1 || id != 2 || len(payload) != 0 {
		t.Fatalf("gen=%d id=%d payload=%v err=%v", gen, id, payload, err)
	}
}

func TestParseShardRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		make([]byte, HeaderSize-1), // too short
		make([]byte, HeaderSize+4), // zero magic
		append([]byte{shardMagic, 99}, make([]byte, 16)...), // bad version
		[]byte("plain stripe bytes from a pre-header store"),
	}
	for i, b := range cases {
		if _, _, _, err := ParseShard(b); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

// reconstructShardsCase erases lost, then asks for exactly those indices
// back and checks they match the originals byte for byte.
func reconstructShardsCase(t *testing.T, k, m, n int, lost []int) {
	t.Helper()
	c, err := NewCoder(k, m)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, n)
	rng := rand.New(rand.NewSource(int64(k*31 + m*7 + n)))
	rng.Read(data)
	shards := c.Split(data)
	parity, err := c.Encode(shards)
	if err != nil {
		t.Fatal(err)
	}
	orig := append(append([][]byte{}, shards...), parity...)
	all := append([][]byte{}, orig...)
	for _, l := range lost {
		all[l] = nil
	}
	rebuilt, err := c.ReconstructShards(all, lost)
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt) != len(lost) {
		t.Fatalf("got %d shards, want %d", len(rebuilt), len(lost))
	}
	for i, l := range lost {
		if !bytes.Equal(rebuilt[i], orig[l]) {
			t.Fatalf("k=%d m=%d lost=%v: shard %d rebuilt wrong", k, m, lost, l)
		}
	}
}

func TestReconstructShardsSingle(t *testing.T) {
	for lost := 0; lost < 6; lost++ {
		reconstructShardsCase(t, 4, 2, 1000, []int{lost})
	}
}

func TestReconstructShardsPairs(t *testing.T) {
	for a := 0; a < 6; a++ {
		for b := a + 1; b < 6; b++ {
			reconstructShardsCase(t, 4, 2, 513, []int{a, b})
		}
	}
}

func TestReconstructShardsParityFromMixedSurvivors(t *testing.T) {
	// Lose two data shards and a parity shard at RS(4,3): rebuilding the
	// parity shard must route through the composed inverse, not Encode.
	reconstructShardsCase(t, 4, 3, 4096, []int{0, 2, 5})
}

func TestReconstructShardsPresentAliased(t *testing.T) {
	c, _ := NewCoder(3, 2)
	shards := c.Split([]byte("aliasing check payload here"))
	parity, _ := c.Encode(shards)
	all := append(append([][]byte{}, shards...), parity...)
	out, err := c.ReconstructShards(all, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if &out[0][0] != &all[1][0] || &out[1][0] != &all[4][0] {
		t.Fatal("present shards should be returned aliased")
	}
}

func TestReconstructShardsValidation(t *testing.T) {
	c, _ := NewCoder(2, 1)
	if _, err := c.ReconstructShards(make([][]byte, 2), []int{0}); err == nil {
		t.Error("wrong slot count accepted")
	}
	ok := [][]byte{{1, 2}, {3, 4}, nil}
	if _, err := c.ReconstructShards(ok, []int{7}); err == nil {
		t.Error("out-of-range want accepted")
	}
	short := [][]byte{{1, 2}, nil, nil}
	if _, err := c.ReconstructShards(short, []int{1}); err == nil {
		t.Error("too few survivors accepted")
	}
}

func TestJoinClampsLongShards(t *testing.T) {
	// A stripe whose stored shards are longer than its length (a writer
	// that never committed its size) must clamp instead of erroring.
	c, _ := NewCoder(3, 1)
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i)
	}
	shards := c.Split(data)
	got, err := c.Join(shards, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[:3000]) {
		t.Fatal("clamped join corrupted payload")
	}
	// A stripe grown back past what its shards hold joins as those bytes
	// (the payload plus Split's zero padding), then zeros.
	long := 3*len(shards[0]) + 5
	got, err = c.Join(shards, long)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(data)], data) || !bytes.Equal(got[len(data):], make([]byte, long-len(data))) {
		t.Error("join past shard coverage is not the payload followed by zeros")
	}
}
