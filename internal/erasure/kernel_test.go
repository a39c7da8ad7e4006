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

// randomRows draws an r×k coefficient matrix, a quarter of its entries 0
// and a quarter 1: the products a kernel is likeliest to special-case.
func randomRows(rng *rand.Rand, r, k int) [][]byte {
	rows := make([][]byte, r)
	for i := range rows {
		rows[i] = make([]byte, k)
		for j := range rows[i] {
			switch rng.Intn(4) {
			case 0:
				rows[i][j] = 0
			case 1:
				rows[i][j] = 1
			default:
				rows[i][j] = byte(rng.Intn(256))
			}
		}
	}
	return rows
}

// checkKernel codes srcs by rows with the dispatch the coder runs
// (codeRows) and with codeInto over tabs, pack(rows), each into
// destinations cut at byte off of buffers whose other bytes are a canary,
// and fails unless both write the same bytes and neither touches a canary.
func checkKernel(t *testing.T, rows [][]byte, tabs []packed, srcs [][]byte, off int) {
	t.Helper()
	n := len(srcs[0])
	stride := off + n + avx2Step // each row's window and the canary after it
	cut := func() ([]byte, [][]byte) {
		buf, dsts := bytes.Repeat([]byte{0xA5}, len(rows)*stride), make([][]byte, len(rows))
		for r := range dsts {
			dsts[r] = buf[r*stride+off:][:n]
		}
		return buf, dsts
	}
	wantBuf, want := cut()
	gotBuf, got := cut()
	codeInto(tabs, srcs, want)
	codeRows(rows, srcs, got, make([]byte, 2*16*len(rows[0])*len(rows)))
	if !bytes.Equal(gotBuf, wantBuf) {
		i := 0
		for gotBuf[i] == wantBuf[i] {
			i++
		}
		t.Fatalf("k=%d rows=%d n=%d off=%d: row %d differs from codeInto at its byte %d (window %d..%d): %#x, want %#x",
			len(srcs), len(rows), n, off, i/stride, i%stride, off, off+n, gotBuf[i], wantBuf[i])
	}
}

// oddSources returns k random n-byte sources, each cut at an odd offset
// of its own stretch of one buffer so no load is aligned.
func oddSources(rng *rand.Rand, k, n int) [][]byte {
	buf, srcs := make([]byte, k*(n+avx2Step)), make([][]byte, k)
	rng.Read(buf)
	for j := range srcs {
		srcs[j] = buf[j*(n+avx2Step)+1+2*rng.Intn(16):][:n]
	}
	return srcs
}

// TestSIMDKernelMatchesScalar is the AVX2 kernel's differential test: for
// k = 1..16 sources and 1..10 rows (past the 8 one pass codes, and past
// RS(4,2)'s 4 sources and 2 rows), lengths 0..300 (whole steps, tails,
// and shards shorter than one step, which stay on codeInto) plus 1 MiB/4
// for a few shapes, on sources and destinations at odd offsets and random
// coefficients including 0 and 1, it must write exactly codeInto's bytes
// and nothing outside the destinations. RS(4,2)'s encode and one-shard
// decode see every length; every other shape every 7th from its own
// start, which still meets all 32 tail lengths and keeps the race
// build's run short.
func TestSIMDKernelMatchesScalar(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 on this CPU: codeInto is the only kernel")
	}
	if !useAVX2(avx2Step) {
		t.Fatal("shards of one step do not reach the AVX2 kernel")
	}
	rng := rand.New(rand.NewSource(45))
	for k := 1; k <= 16; k++ {
		for r := 1; r <= 10; r++ {
			rows := randomRows(rng, r, k)
			tabs := pack(rows)
			step := 7
			if k == 4 && r <= 2 {
				step = 1
			}
			for n := (k + r) % step; n <= 300; n += step {
				checkKernel(t, rows, tabs, oddSources(rng, k, n), 1+2*rng.Intn(16))
			}
		}
	}
	for _, shape := range [][2]int{{4, 2}, {4, 1}, {5, 9}, {16, 10}} {
		rows := randomRows(rng, shape[1], shape[0])
		checkKernel(t, rows, pack(rows), oddSources(rng, shape[0], 1<<18), 7)
	}
}

// FuzzCodeKernel is TestSIMDKernelMatchesScalar's comparison on shapes,
// lengths, offsets and coefficients drawn from the input: the sources are
// consecutive cuts of data, 1..16 of them, coded by 1..10 rows.
func FuzzCodeKernel(f *testing.F) {
	f.Add([]byte("scientific workflow intermediate data, coded in 32-byte steps"), uint8(3), uint8(1), uint8(1), int64(1))
	f.Add(bytes.Repeat([]byte{0xff, 0x0f, 0xf0, 0x01}, 80), uint8(0), uint8(0), uint8(0), int64(2))
	f.Add(bytes.Repeat([]byte("odd tails "), 200), uint8(15), uint8(9), uint8(31), int64(3))
	f.Add(bytes.Repeat([]byte{0x1d}, 33), uint8(0), uint8(8), uint8(5), int64(4))
	f.Fuzz(func(t *testing.T, data []byte, kIn, rIn, offIn uint8, seed int64) {
		k, r := 1+int(kIn)%16, 1+int(rIn)%10
		n := len(data) / k
		srcs := make([][]byte, k)
		for j := range srcs {
			srcs[j] = data[j*n : (j+1)*n]
		}
		rows := randomRows(rand.New(rand.NewSource(seed)), r, k)
		checkKernel(t, rows, pack(rows), srcs, int(offIn)%avx2Step)
	})
}

// TestAVX2KernelChecksLengths pins the wrapper's checks, the assembly
// having none: a source or destination shorter than the first destination
// and tables for the wrong shape panic instead of touching memory.
func TestAVX2KernelChecksLengths(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	rows := [][]byte{{1, 2}, {3, 4}}
	buf := func(n int) []byte { return make([]byte, n) }
	for name, call := range map[string]func(){
		"short source":      func() { codeAVX2(nibbles(rows), [][]byte{buf(64), buf(63)}, [][]byte{buf(64), buf(64)}) },
		"short destination": func() { codeAVX2(nibbles(rows), [][]byte{buf(64), buf(64)}, [][]byte{buf(64), buf(40)}) },
		"one row's tables":  func() { codeAVX2(nibbles(rows[:1]), [][]byte{buf(64), buf(64)}, [][]byte{buf(64), buf(64)}) },
		"shorter than step": func() { codeAVX2(nibbles(rows), [][]byte{buf(31), buf(31)}, [][]byte{buf(31), buf(31)}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: codeAVX2 did not panic", name)
				}
			}()
			call()
		}()
	}
}
