package erasure

// haveAVX2 is decided once at init: the CPU reports AVX2 and the OS saves
// the YMM registers across context switches (XCR0 bits 1 and 2).
var haveAVX2 = detectAVX2()

func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// codeNibbles computes bytes [off, off+n) of 1 to 8 destination rows from
// the sources with nib's tables for those rows (see nibbles). n must be a
// positive multiple of avx2Step and every slice must hold off+n bytes: the
// assembly checks nothing.
//
//go:noescape
func codeNibbles(nib []byte, srcs, dsts [][]byte, off, n int)

// codeAVX2 is codeInto for the AVX2 kernel: nib is nibbles(rows) for the
// rows dsts receive, and one pass over the sources writes up to 8. Every
// source and destination must hold at least len(dsts[0]) ≥ avx2Step bytes,
// and none may overlap another: a shard that is not a whole number of
// steps ends with one step over its last avx2Step bytes, which rewrites
// some already written.
func codeAVX2(nib []byte, srcs, dsts [][]byte) {
	n, k := len(dsts[0]), len(srcs)
	if n < avx2Step || k == 0 || len(nib) != 2*16*k*len(dsts) {
		panic("erasure: AVX2 kernel called with a short shard or mismatched tables")
	}
	for _, shards := range [2][][]byte{srcs, dsts} {
		for _, s := range shards {
			if len(s) < n {
				panic("erasure: shard shorter than the coded length")
			}
		}
	}
	for g := 0; g < len(dsts); g += 8 {
		out := dsts[g:min(g+8, len(dsts))]
		tab := nib[2*16*k*g : 2*16*k*(g+len(out))]
		codeNibbles(tab, srcs, out, 0, n&^(avx2Step-1))
		if n%avx2Step != 0 {
			codeNibbles(tab, srcs, out, n-avx2Step, avx2Step)
		}
	}
}
