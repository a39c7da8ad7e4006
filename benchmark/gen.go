package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
)

// payloads hands out file contents as a pure function of (seed, file,
// version). Every payload is a window into one PRNG-filled base buffer, at
// an offset hashed from (file, version): handing one out costs no copy and
// no generation, so the generator is never the bottleneck, and the
// expected bytes of any file can be recomputed for verification without
// keeping a copy. Windows at different offsets of a random buffer differ
// in essentially every byte, so a stale or misplaced stripe cannot pass.
type payloads struct {
	seed int64
	base []byte
}

// payloadSlack is how far a window may slide; 8-byte aligned offsets give
// 128Ki distinct windows.
const payloadSlack = 1 << 20

func newPayloads(seed int64, maxLen int) *payloads {
	base := make([]byte, maxLen+payloadSlack)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i+8 <= len(base); i += 8 {
		binary.LittleEndian.PutUint64(base[i:], rng.Uint64())
	}
	return &payloads{seed: seed, base: base}
}

// mix is splitmix64's finalizer: a cheap, well-spread 64-bit hash.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// get returns the n-byte payload of (file, version). The slice aliases the
// base buffer and must not be written to.
func (p *payloads) get(file, version uint64, n int) []byte {
	h := mix(mix(uint64(p.seed)^file*0x100000001b3) ^ version)
	off := int(h%(payloadSlack/8)) * 8
	return p.base[off : off+n]
}

// edgeCheck is the per-read correctness check that runs outside the timed
// span: full length, and the first and last 4 KiB.
const edgeCheck = 4096

func edgesMatch(got, want []byte) bool {
	if len(got) != len(want) {
		return false
	}
	e := edgeCheck
	if e > len(got) {
		e = len(got)
	}
	return bytes.Equal(got[:e], want[:e]) && bytes.Equal(got[len(got)-e:], want[len(want)-e:])
}

// clientRand returns the PRNG for one client's op stream: a function of
// the seed, the workload and the client index only.
func clientRand(seed int64, workload string, client int) *rand.Rand {
	h := uint64(seed)
	for _, c := range []byte(workload) {
		h = mix(h ^ uint64(c))
	}
	return rand.New(rand.NewSource(int64(mix(h ^ uint64(client)))))
}
