package erasure

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzParseShard feeds arbitrary bytes to the shard-header parser: it
// must never panic, must reject with ErrBadShard or return a payload
// aliasing the input's tail, and whatever it accepts must survive a
// WrapShard round trip unchanged.
func FuzzParseShard(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{shardMagic})
	f.Add(make([]byte, HeaderSize))
	f.Add(WrapShard(0, 0, nil))
	f.Add(WrapShard(1, 2, []byte("payload")))
	f.Add(WrapShard(^uint64(0), ^uint64(0), bytes.Repeat([]byte{0xE5}, 40)))
	f.Add(append([]byte{shardMagic, shardVersion + 1}, make([]byte, 32)...))
	f.Fuzz(func(t *testing.T, b []byte) {
		gen, id, payload, err := ParseShard(b)
		if err != nil {
			if !errors.Is(err, ErrBadShard) {
				t.Fatalf("ParseShard error %v is not ErrBadShard", err)
			}
			return
		}
		if len(payload) != len(b)-HeaderSize {
			t.Fatalf("payload %d bytes of a %d-byte shard", len(payload), len(b))
		}
		if again := WrapShard(gen, id, payload); !bytes.Equal(again, b) {
			t.Fatalf("WrapShard(ParseShard(b)) != b")
		}
	})
}

// FuzzReconstruct derives a coder shape, a payload and an erasure mask
// from the input: Join(Reconstruct(...)) must return the payload exactly
// whenever at least k shards survive and ErrTooFewShards otherwise, and
// ReconstructShards must rebuild every lost slot, parity included, in one
// call. m reaches 10, past the 8 rows one packed table holds.
func FuzzReconstruct(f *testing.F) {
	f.Add([]byte("scientific workflow intermediate data"), uint8(4), uint8(2), uint32(0b100001))
	f.Add([]byte{}, uint8(1), uint8(1), uint32(0))
	f.Add([]byte{0}, uint8(3), uint8(2), uint32(0b00111))
	f.Add(bytes.Repeat([]byte{0xff, 0x00, 0x1d}, 100), uint8(10), uint8(4), uint32(0b10100000000101))
	f.Add([]byte("x"), uint8(5), uint8(3), uint32(0xffff))
	f.Add(bytes.Repeat([]byte("chunked rows "), 300), uint8(11), uint8(9), uint32(0x1ff))
	f.Fuzz(func(t *testing.T, payload []byte, kIn, mIn uint8, mask uint32) {
		k, m := 1+int(kIn)%12, 1+int(mIn)%10
		c, err := NewCoder(k, m)
		if err != nil {
			t.Fatal(err)
		}
		all := splitEncode(c, payload)
		shards := make([][]byte, k+m)
		survivors, lost := 0, []int{}
		for i := range shards {
			if mask&(1<<i) != 0 {
				lost = append(lost, i)
				continue
			}
			shards[i] = all[i]
			survivors++
		}
		data, err := c.Reconstruct(shards)
		if survivors < k {
			if !errors.Is(err, ErrTooFewShards) {
				t.Fatalf("RS(%d,%d) mask %b: err %v, want ErrTooFewShards", k, m, mask, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("RS(%d,%d) mask %b: %v", k, m, mask, err)
		}
		got, err := c.Join(data, len(payload))
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("RS(%d,%d) mask %b: round trip differs (err %v)", k, m, mask, err)
		}
		rebuilt, err := c.ReconstructShards(shards, lost)
		if err != nil {
			t.Fatalf("RS(%d,%d) mask %b: ReconstructShards: %v", k, m, mask, err)
		}
		for i, l := range lost {
			if !bytes.Equal(rebuilt[i], all[l]) {
				t.Fatalf("RS(%d,%d) mask %b: rebuilt slot %d differs", k, m, mask, l)
			}
		}
	})
}
