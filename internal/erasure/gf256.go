// Package erasure implements Reed–Solomon erasure coding over GF(2^8) —
// the lower-redundancy alternative to replication that the paper names as
// work in progress (§III-E): with k data shards and m parity shards, any k
// of the k+m shards reconstruct a stripe, at a storage overhead of m/k
// instead of replication's (R-1)x.
package erasure

// GF(2^8) arithmetic with the AES/Rijndael-compatible polynomial 0x11d,
// using log/exp tables built at init.

var (
	gfExp [512]byte // doubled so mul can skip the mod-255 reduction
	gfLog [256]byte
	// gfMulTable[c][x] = c·x. Row c is the whole multiply-by-c map, so the
	// coding kernel pays one branch-free load per byte; 64 KiB, L2-resident.
	gfMulTable [256][256]byte
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
	for a := range gfMulTable {
		for b := range gfMulTable[a] {
			gfMulTable[a][b] = gfMul(byte(a), byte(b))
		}
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

// dotInto computes dst[i] = Σ_j coef[j]·srcs[j][i] — one output shard of
// an encode or a decode — in a single pass over dst: four sources per
// iteration, then one at a time for the remainder. The first group
// stores and later ones accumulate, so dst need not be zeroed. Every
// source must be at least len(dst) long and len(coef) >= 1.
func dotInto(coef []byte, srcs [][]byte, dst []byte) {
	n := len(dst)
	j := 0
	for ; j+4 <= len(coef); j += 4 {
		t0, t1, t2, t3 := &gfMulTable[coef[j]], &gfMulTable[coef[j+1]], &gfMulTable[coef[j+2]], &gfMulTable[coef[j+3]]
		d0, d1, d2, d3 := srcs[j][:n], srcs[j+1][:n], srcs[j+2][:n], srcs[j+3][:n]
		if j == 0 {
			for i := range dst {
				dst[i] = t0[d0[i]] ^ t1[d1[i]] ^ t2[d2[i]] ^ t3[d3[i]]
			}
		} else {
			for i := range dst {
				dst[i] ^= t0[d0[i]] ^ t1[d1[i]] ^ t2[d2[i]] ^ t3[d3[i]]
			}
		}
	}
	for ; j < len(coef); j++ {
		t, d := &gfMulTable[coef[j]], srcs[j][:n]
		if j == 0 {
			for i := range dst {
				dst[i] = t[d[i]]
			}
		} else {
			for i := range dst {
				dst[i] ^= t[d[i]]
			}
		}
	}
}

// invertMatrix inverts an n×n matrix over GF(256) in place using
// Gauss–Jordan elimination, returning false if singular.
func invertMatrix(m [][]byte) bool {
	n := len(m)
	// Augment with identity.
	aug := make([][]byte, n)
	for i := range aug {
		aug[i] = make([]byte, 2*n)
		copy(aug[i], m[i])
		aug[i][n+i] = 1
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if aug[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return false
		}
		aug[col], aug[pivot] = aug[pivot], aug[col]
		inv := gfInv(aug[col][col])
		for j := 0; j < 2*n; j++ {
			aug[col][j] = gfMul(aug[col][j], inv)
		}
		for r := 0; r < n; r++ {
			if r == col || aug[r][col] == 0 {
				continue
			}
			f := aug[r][col]
			for j := 0; j < 2*n; j++ {
				aug[r][j] ^= gfMul(f, aug[col][j])
			}
		}
	}
	for i := range m {
		copy(m[i], aug[i][n:])
	}
	return true
}
