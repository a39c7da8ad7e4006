// Package erasure implements Reed–Solomon erasure coding over GF(2^8) —
// the lower-redundancy alternative to replication that the paper names as
// work in progress (§III-E): with k data shards and m parity shards, any k
// of the k+m shards reconstruct a stripe, at a storage overhead of m/k
// instead of replication's (R-1)x.
//
// Two kernels code shards, and both write the same bytes. Where CPUID
// reports AVX2 and the OS saves the YMM registers (decided once at init),
// shards of at least 32 bytes go to an AVX2 split-nibble kernel in
// assembly (gf256_amd64.s), which writes up to 8 output shards in one pass
// over the sources. Everything else (other architectures, CPUs without
// AVX2, shorter shards) runs codeInto, the portable packed-row kernel,
// which is also the AVX2 kernel's test oracle. Nothing configures the
// choice.
package erasure

// GF(2^8) arithmetic with the AES/Rijndael-compatible polynomial 0x11d,
// using log/exp tables built at init.

var (
	gfExp [512]byte // doubled so mul can skip the mod-255 reduction
	gfLog [256]byte
)

func init() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		gfExp[i] = x
		gfLog[x] = byte(i)
		// multiply x by the generator 2 modulo the field polynomial
		carry := x&0x80 != 0
		x <<= 1
		if carry {
			x ^= 0x1d
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfDiv divides a by b; b must be non-zero.
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("erasure: division by zero in GF(256)")
	}
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// gfInv returns the multiplicative inverse of a non-zero element.
func gfInv(a byte) byte { return gfDiv(1, a) }

// packed is the product table of up to 8 coefficient rows over the same
// sources: byte r of t[j][x] is rows[r][j]·x, so one load per source byte
// serves every row. Zero tables pad it to a multiple of four sources, so
// codeInto reads sources four at a time with no tail.
type packed [][256]uint64

// pack lays rows (one coefficient per source each) out as packed tables,
// 8 rows per table. Multiplying by c is linear over GF(2), so an entry is
// the XOR of those for its bits: 8 products per source and row, not 256.
func pack(rows [][]byte) []packed {
	tabs := make([]packed, (len(rows)+7)/8)
	for c := range tabs {
		tabs[c] = make(packed, (len(rows[0])+3)&^3)
		for j := range rows[0] {
			tj := &tabs[c][j]
			for b := 1; b < 256; b <<= 1 {
				var w uint64
				for r, row := range rows[8*c : min(8*c+8, len(rows))] {
					w |= uint64(gfMul(row[j], byte(b))) << (8 * r)
				}
				for x := b; x < 2*b; x++ {
					tj[x] = tj[x-b] ^ w
				}
			}
		}
	}
	return tabs
}

// codeInto computes dsts[r][i] = Σ_j rows[r][j]·srcs[j][i] for the rows tabs
// packs, in one pass over the sources per 8 rows: with k ≤ 4 and one or two
// rows (RS(4,2)'s parity, a lost shard) each word is written straight out;
// otherwise a block gathers its words four sources at a time, then byte r of
// each goes to dsts[r]. dsts need not be zeroed; all hold len(dsts[0]) bytes.
func codeInto(tabs []packed, srcs, dsts [][]byte) {
	var acc [512]uint64 // one block of positions: 4 KiB beside the table in L1
	n := len(dsts[0])
	for c, t := range tabs {
		out := dsts[8*c : min(8*c+8, len(dsts))]
		for base := 0; base < n; base += len(acc) {
			a := acc[:min(len(acc), n-base)]
			if len(t) == 4 && len(out) <= 2 {
				gather(a, (*[4][256]uint64)(t), srcs, 0, base, [2][]byte{out[0][base:], out[len(out)-1][base:]})
				continue
			}
			clear(a)
			for j := 0; j < len(t); j += 4 {
				gather(a, (*[4][256]uint64)(t[j:j+4]), srcs, j, base, [2][]byte{})
			}
			for r, dst := range out {
				dst, s := dst[base:][:len(a)], uint(8*r)&63
				for i, w := range a {
					dst[i] = byte(w >> s)
				}
			}
		}
	}
}

// gather, codeInto's inner loop, has the registers to itself: it adds sources
// j..j+3's words into a or, with a only sizing the block, writes rows 0 and 1
// to o (one row: o[0] twice).
func gather(a []uint64, t *[4][256]uint64, srcs [][]byte, j, base int, o [2][]byte) {
	s := func(q int) []byte { return srcs[min(j+q, len(srcs)-1)][base:][:len(a)] } // past k: a zero table
	d0, d1, d2, d3 := s(0), s(1), s(2), s(3)
	if o[0] == nil {
		for i := range a {
			a[i] ^= t[0][d0[i]] ^ t[1][d1[i]] ^ t[2][d2[i]] ^ t[3][d3[i]]
		}
		return
	}
	o0, o1 := o[0][:len(a)], o[1][:len(a)]
	for i := range a {
		w := t[0][d0[i]] ^ t[1][d1[i]] ^ t[2][d2[i]] ^ t[3][d3[i]]
		o1[i], o0[i] = byte(w>>8), byte(w) // o1 may be o0: row 0 lands last
	}
}

// avx2Step is the bytes of each row one step of the AVX2 kernel codes.
const avx2Step = 32

// useAVX2 reports whether shards of n bytes go to the AVX2 kernel: where
// the CPU has it and they hold at least one step. Anything else, and every
// other machine, runs codeInto.
func useAVX2(n int) bool { return haveAVX2 && n >= avx2Step }

// nibbles lays rows out for the AVX2 kernel: per group of up to 8 rows
// (one pass over the sources), per source j, per row r of the group, 16
// bytes rows[r][j]·x and 16 bytes rows[r][j]·(x<<4) for x < 16. Their
// XOR at a byte's low and high nibble is its product: 32 B per
// coefficient, against pack's 2 KiB per source for 8 rows. As in pack, an
// entry is the XOR of those for its bits.
func nibbles(rows [][]byte) []byte {
	return nibblesInto(make([]byte, 2*16*len(rows[0])*len(rows)), rows)
}

// nibblesInto is nibbles into nib, which must hold exactly 32 bytes per
// coefficient of rows.
func nibblesInto(nib []byte, rows [][]byte) []byte {
	k := len(rows[0])
	t := nib
	for g := 0; g < len(rows); g += 8 {
		for j := 0; j < k; j++ {
			for _, row := range rows[g:min(g+8, len(rows))] {
				lo, hi := t[:16], t[16:32]
				for b := 1; b < 16; b <<= 1 {
					pl, ph := gfMul(row[j], byte(b)), gfMul(row[j], byte(b<<4))
					for x := b; x < 2*b; x++ {
						lo[x], hi[x] = lo[x-b]^pl, hi[x-b]^ph
					}
				}
				t = t[32:]
			}
		}
	}
	return nib
}

// codeRows computes dsts[r] = Σ_j rows[r][j]·srcs[j] for rows used once,
// such as a decode's: it lays out only the tables its kernel reads, the
// AVX2 kernel's into nib, which holds 32 bytes per coefficient of rows
// where that kernel runs.
func codeRows(rows, srcs, dsts [][]byte, nib []byte) {
	if useAVX2(len(dsts[0])) {
		codeAVX2(nibblesInto(nib, rows), srcs, dsts)
		return
	}
	codeInto(pack(rows), srcs, dsts)
}

// invertMatrix inverts an n×n matrix over GF(256) in place using
// Gauss–Jordan elimination, returning false if singular. aug is its
// scratch: the n×2n augmented matrix, row after row.
func invertMatrix(m [][]byte, aug []byte) bool {
	n := len(m)
	w := 2 * n
	row := func(r int) []byte { return aug[r*w : (r+1)*w] }
	// Augment with identity.
	clear(aug)
	for i := range m {
		copy(row(i), m[i])
		row(i)[n+i] = 1
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if row(r)[col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return false
		}
		pc, pp := row(col), row(pivot)
		for j := range pc {
			pc[j], pp[j] = pp[j], pc[j]
		}
		inv := gfInv(pc[col])
		for j := range pc {
			pc[j] = gfMul(pc[j], inv)
		}
		for r := 0; r < n; r++ {
			rr := row(r)
			if r == col || rr[col] == 0 {
				continue
			}
			f := rr[col]
			for j := range rr {
				rr[j] ^= gfMul(f, pc[j])
			}
		}
	}
	for i := range m {
		copy(m[i], row(i)[n:])
	}
	return true
}
