//go:build !amd64

package erasure

// haveAVX2 is false off amd64: codeInto is the only kernel.
const haveAVX2 = false

func codeAVX2(nib []byte, srcs, dsts [][]byte) {
	panic("erasure: no AVX2 kernel on this architecture")
}
