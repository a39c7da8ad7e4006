package erasure

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// oracleDot is the byte-at-a-time reference for one row of codeInto,
// written with gfMul only: out[i] = Σ_j coef[j]·srcs[j][i].
func oracleDot(coef []byte, srcs [][]byte, size int) []byte {
	out := make([]byte, size)
	for i := range out {
		for j, c := range coef {
			out[i] ^= gfMul(c, srcs[j][i])
		}
	}
	return out
}

// oracleStripe splits payload and computes all k+m shards with the oracle.
func oracleStripe(c *Coder, payload []byte) [][]byte {
	all := c.Split(payload)
	size := c.ShardSize(len(payload))
	for _, coef := range c.parity {
		all = append(all, oracleDot(coef, all[:c.k], size))
	}
	return all
}

// erasurePatterns lists erasure masks over n slots losing 1..m shards:
// every one when exhaustive, else up to limit drawn from rng.
func erasurePatterns(n, m int, exhaustive bool, limit int, rng *rand.Rand) [][]int {
	var out [][]int
	if exhaustive {
		for mask := 1; mask < 1<<n; mask++ {
			var lost []int
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					lost = append(lost, i)
				}
			}
			if len(lost) <= m {
				out = append(out, lost)
			}
		}
		return out
	}
	for len(out) < limit {
		out = append(out, rng.Perm(n)[:1+rng.Intn(m)])
	}
	return out
}

// TestKernelMatchesOracle is the differential test: Encode, SplitEncode
// and ReconstructShards agree with the gfMul oracle for every listed
// shape — k%4 tails, m past the 8 rows one packed table holds, lengths
// around the word size and past one 512-position block — and
// ReconstructShards rebuilds all m lost shards of a stripe in one call.
func TestKernelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for k := 1; k <= 12; k++ {
		for _, m := range []int{1, 2, 3, 4, 8, 9, 12} {
			c, err := NewCoder(k, m)
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range []int{0, 1, 3, 7, 8, 9, 255, 4097} {
				name := fmt.Sprintf("RS(%d,%d)/size=%d", k, m, size)
				payload := make([]byte, k*size)
				rng.Read(payload)
				want := oracleStripe(c, payload)

				parity, err := c.Encode(want[:k])
				if err != nil {
					t.Fatalf("%s: Encode: %v", name, err)
				}
				for i, p := range parity {
					if !bytes.Equal(p, want[k+i]) {
						t.Fatalf("%s: Encode parity %d differs from oracle", name, i)
					}
				}
				for i, s := range splitEncode(c, payload) {
					if !bytes.Equal(s, want[i]) {
						t.Fatalf("%s: SplitEncode shard %d differs from oracle", name, i)
					}
				}

				exhaustive := k == 4 && m == 2
				patterns := erasurePatterns(k+m, m, exhaustive, 3, rng)
				for _, lost := range append(patterns, rng.Perm(k + m)[:m]) {
					shards := make([][]byte, k+m)
					copy(shards, want)
					for _, l := range lost {
						shards[l] = nil
					}
					got, err := c.ReconstructShards(shards, lost)
					if err != nil {
						t.Fatalf("%s lost %v: %v", name, lost, err)
					}
					for i, l := range lost {
						if !bytes.Equal(got[i], want[l]) {
							t.Fatalf("%s lost %v: shard %d differs from oracle", name, lost, l)
						}
					}
				}
			}
		}
	}
}

// TestParityGoldenRS42 pins the parity bytes of RS(4,2) over a seeded
// 1 MiB payload to hashes recorded on the commit before the fused-table
// kernel replaced the log/exp loop: shards stored by either are readable
// by the other.
func TestParityGoldenRS42(t *testing.T) {
	golden := []string{
		"8aa9bf03c22b5440310f7f026c9ff812bec5993121d2b3de2ac94ef8d9ec5c1c",
		"97336ca6a5306efbd7c02f358fd80aeb8002f88d74fca25bea1448bd4c859537",
	}
	c, _ := NewCoder(4, 2)
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(42)).Read(payload)
	parity, err := c.Encode(c.Split(payload))
	if err != nil {
		t.Fatal(err)
	}
	wire := splitEncode(c, payload)
	for i, p := range parity {
		sum := sha256.Sum256(p)
		if got := hex.EncodeToString(sum[:]); got != golden[i] {
			t.Errorf("parity %d sha256 = %s, want %s", i, got, golden[i])
		}
		if !bytes.Equal(wire[4+i], p) {
			t.Errorf("SplitEncode parity %d differs from Encode", i)
		}
	}
}

// splitEncode runs SplitEncode into fresh parity buffers and returns all
// k+m shard bodies in slot order.
func splitEncode(c *Coder, payload []byte) [][]byte {
	parity := make([][]byte, c.M())
	for i := range parity {
		parity[i] = make([]byte, c.ShardSize(len(payload)))
	}
	return append(c.SplitEncode(payload, parity), parity...)
}

// TestSplitEncodeEqualsWrapSplitEncode checks the write path's encoder
// against the calls it replaces, byte for byte once wrapped in the shard
// header: a data shard the payload fills is a view of it, capped so
// appending cannot reach the next shard, and only the zero-padded tail is
// a copy, so scribbling over the payload changes exactly the views.
func TestSplitEncodeEqualsWrapSplitEncode(t *testing.T) {
	c, _ := NewCoder(4, 2)
	for _, n := range []int{0, 1, 3, 5, 4099, 4096, 1 << 16} {
		payload := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(payload)
		data := c.Split(payload)
		parity, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		got := splitEncode(c, payload)
		if len(got) != 6 {
			t.Fatalf("n=%d: %d shards, want 6", n, len(got))
		}
		size := c.ShardSize(n)
		for i, s := range append(data, parity...) {
			if want := WrapShard(3, 0xfeed, s); !bytes.Equal(WrapShard(3, 0xfeed, got[i]), want) {
				t.Fatalf("n=%d: shard %d differs from WrapShard(Split+Encode)", n, i)
			}
			if cap(got[i]) != len(got[i]) {
				t.Fatalf("n=%d: shard %d has cap %d past its len %d", n, i, cap(got[i]), len(got[i]))
			}
		}
		for i := range payload {
			payload[i] ^= 0xff
		}
		for i, s := range got[:4] {
			view := (i+1)*size <= n
			if size > 0 && (s[0] == data[i][0]) == view {
				t.Fatalf("n=%d: data shard %d aliases the payload: %v, want %v", n, i, !view, view)
			}
		}
	}
}

// TestJoinIntoWindows reads every window of a short payload and the
// clamped cases Join accepts: oversized shards, undersized shards, and a
// window running past the payload's end.
func TestJoinIntoWindows(t *testing.T) {
	c, _ := NewCoder(3, 1)
	payload := []byte("0123456789abcdefg") // 17 bytes: shards of 6, last padded
	shards := c.Split(payload)
	for off := 0; off <= len(payload); off++ {
		for l := 0; off+l <= len(payload)+2; l++ {
			dst := bytes.Repeat([]byte{0xff}, l)
			n, err := c.JoinInto(dst, shards, off, len(payload))
			if err != nil {
				t.Fatal(err)
			}
			want := payload[off:min(off+l, len(payload))]
			if n != len(want) || !bytes.Equal(dst[:n], want) {
				t.Fatalf("JoinInto(off=%d,len=%d) = %d %q, want %q", off, l, n, dst[:n], want)
			}
		}
	}
	// A payload truncated in metadata keeps its full-size shards.
	dst := make([]byte, 8)
	if n, err := c.JoinInto(dst, shards, 2, 7); err != nil || string(dst[:n]) != "23456" {
		t.Fatalf("clamped JoinInto = %d %q %v, want 5 \"23456\"", n, dst[:n], err)
	}
	// A payload grown past what its shards hold yields what they hold (the
	// padded 18 bytes); the caller zeroes the rest.
	if n, err := c.JoinInto(dst, shards, 12, 25); err != nil || string(dst[:n]) != "cdefg\x00" {
		t.Fatalf("grown JoinInto = %d %q %v, want 6 \"cdefg\\x00\"", n, dst[:n], err)
	}
	if _, err := c.JoinInto(dst, shards[:2], 0, 4); err == nil {
		t.Fatal("JoinInto accepted k-1 shards")
	}
}
