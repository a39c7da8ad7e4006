package erasure

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGFAxioms(t *testing.T) {
	// Spot-check field axioms exhaustively for multiplication.
	for a := 0; a < 256; a++ {
		if gfMul(byte(a), 1) != byte(a) {
			t.Fatalf("1 is not identity for %d", a)
		}
		if gfMul(byte(a), 0) != 0 {
			t.Fatalf("0 not absorbing for %d", a)
		}
		if a != 0 {
			if gfMul(byte(a), gfInv(byte(a))) != 1 {
				t.Fatalf("inverse broken for %d", a)
			}
		}
	}
	// Commutativity and associativity on a sample.
	for a := 1; a < 256; a += 7 {
		for b := 1; b < 256; b += 11 {
			if gfMul(byte(a), byte(b)) != gfMul(byte(b), byte(a)) {
				t.Fatalf("mul not commutative at %d,%d", a, b)
			}
			for c := 1; c < 256; c += 29 {
				l := gfMul(gfMul(byte(a), byte(b)), byte(c))
				r := gfMul(byte(a), gfMul(byte(b), byte(c)))
				if l != r {
					t.Fatalf("mul not associative at %d,%d,%d", a, b, c)
				}
			}
		}
	}
}

func TestGFDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on division by zero")
		}
	}()
	gfDiv(3, 0)
}

func TestInvertMatrixIdentity(t *testing.T) {
	m := [][]byte{{1, 0}, {0, 1}}
	if !invertMatrix(m, make([]byte, 8)) {
		t.Fatal("identity reported singular")
	}
	if m[0][0] != 1 || m[0][1] != 0 || m[1][0] != 0 || m[1][1] != 1 {
		t.Fatalf("identity inverse wrong: %v", m)
	}
}

func TestInvertMatrixSingular(t *testing.T) {
	m := [][]byte{{1, 1}, {1, 1}}
	if invertMatrix(m, make([]byte, 8)) {
		t.Fatal("singular matrix inverted")
	}
}

func TestNewCoderValidation(t *testing.T) {
	for _, c := range [][2]int{{0, 1}, {1, 0}, {-1, 2}, {200, 100}} {
		if _, err := NewCoder(c[0], c[1]); err == nil {
			t.Errorf("k=%d m=%d accepted", c[0], c[1])
		}
	}
	c, err := NewCoder(4, 2)
	if err != nil || c.K() != 4 || c.M() != 2 {
		t.Fatalf("NewCoder(4,2): %v %v", c, err)
	}
}

func TestSplitJoinRoundTrip(t *testing.T) {
	c, _ := NewCoder(4, 2)
	for _, n := range []int{0, 1, 3, 4, 5, 100, 1023, 1024, 1025} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i * 7)
		}
		shards := c.Split(data)
		if len(shards) != 4 {
			t.Fatalf("Split gave %d shards", len(shards))
		}
		got, err := c.Join(shards, n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round trip failed for n=%d", n)
		}
	}
}

func TestJoinValidation(t *testing.T) {
	c, _ := NewCoder(3, 1)
	if _, err := c.Join(make([][]byte, 2), 10); err == nil {
		t.Error("wrong shard count accepted")
	}
	bad := [][]byte{make([]byte, 4), make([]byte, 4), make([]byte, 3)}
	if _, err := c.Join(bad, 12); err == nil {
		t.Error("uneven shards accepted")
	}
}

func TestEncodeValidation(t *testing.T) {
	c, _ := NewCoder(3, 2)
	if _, err := c.Encode(make([][]byte, 2)); err == nil {
		t.Error("wrong shard count accepted")
	}
	uneven := [][]byte{make([]byte, 4), make([]byte, 4), make([]byte, 5)}
	if _, err := c.Encode(uneven); err == nil {
		t.Error("uneven shards accepted")
	}
}

// reconstructAfterLoss encodes a payload, erases the given shard indices,
// and checks reconstruction recovers the payload exactly.
func reconstructAfterLoss(t *testing.T, k, m, n int, lost []int) {
	t.Helper()
	c, err := NewCoder(k, m)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, n)
	rng := rand.New(rand.NewSource(int64(k*1000 + m*100 + n)))
	rng.Read(data)
	shards := c.Split(data)
	parity, err := c.Encode(shards)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([][]byte{}, shards...), parity...)
	for _, l := range lost {
		all[l] = nil
	}
	rec, err := c.Reconstruct(all)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Join(rec, n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("k=%d m=%d lost=%v: payload corrupted", k, m, lost)
	}
}

func TestReconstructSingleLoss(t *testing.T) {
	for lost := 0; lost < 6; lost++ {
		reconstructAfterLoss(t, 4, 2, 1000, []int{lost})
	}
}

func TestReconstructDoubleLoss(t *testing.T) {
	for a := 0; a < 6; a++ {
		for b := a + 1; b < 6; b++ {
			reconstructAfterLoss(t, 4, 2, 512, []int{a, b})
		}
	}
}

func TestReconstructNoLossFastPath(t *testing.T) {
	reconstructAfterLoss(t, 5, 3, 777, nil)
}

func TestReconstructTooFewShards(t *testing.T) {
	c, _ := NewCoder(4, 2)
	data := c.Split(make([]byte, 100))
	parity, _ := c.Encode(data)
	all := append(append([][]byte{}, data...), parity...)
	all[0], all[1], all[2] = nil, nil, nil // 3 of 6 lost, k=4 needed
	if _, err := c.Reconstruct(all); err == nil {
		t.Fatal("reconstructed from too few shards")
	}
}

func TestReconstructValidation(t *testing.T) {
	c, _ := NewCoder(2, 1)
	if _, err := c.Reconstruct(make([][]byte, 2)); err == nil {
		t.Error("wrong slot count accepted")
	}
	bad := [][]byte{make([]byte, 4), make([]byte, 5), nil}
	if _, err := c.Reconstruct(bad); err == nil {
		t.Error("uneven survivors accepted")
	}
}

// Property: for random payloads and any m-subset of losses, RS(6,3)
// reconstructs exactly.
func TestReconstructProperty(t *testing.T) {
	c, err := NewCoder(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	f := func(data []byte, l1, l2, l3 uint8) bool {
		if len(data) == 0 {
			data = []byte{0}
		}
		shards := c.Split(data)
		parity, err := c.Encode(shards)
		if err != nil {
			return false
		}
		all := append(append([][]byte{}, shards...), parity...)
		all[int(l1)%9] = nil
		all[int(l2)%9] = nil
		all[int(l3)%9] = nil
		rec, err := c.Reconstruct(all)
		if err != nil {
			return false
		}
		got, err := c.Join(rec, len(data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStorageOverheadVsReplication(t *testing.T) {
	// The point of the extension: RS(8,2) costs 25% extra storage and
	// survives 2 losses; 3-way replication costs 200% for the same.
	c, _ := NewCoder(8, 2)
	payload := 8192
	shardBytes := c.ShardSize(payload) * (c.K() + c.M())
	overhead := float64(shardBytes)/float64(payload) - 1
	if overhead > 0.26 {
		t.Fatalf("RS(8,2) overhead %.2f, want ~0.25", overhead)
	}
}

// benchPayload is 1 MiB of seeded random bytes: a zero page would let a
// kernel that skips zero symbols report a speed no real stripe sees.
func benchPayload() []byte {
	p := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(p)
	return p
}

func BenchmarkEncodeRS42_1MiB(b *testing.B) {
	c, _ := NewCoder(4, 2)
	data := c.Split(benchPayload())
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSplitEncodeRS42_1MiB is the write path's encode: the data
// shards are views of the payload and the parity lands in buffers the
// caller reuses, so the one allocation is the data shards' slice.
func BenchmarkSplitEncodeRS42_1MiB(b *testing.B) {
	c, _ := NewCoder(4, 2)
	payload := benchPayload()
	parity := [][]byte{make([]byte, 1<<18), make([]byte, 1<<18)}
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchShards = c.SplitEncode(payload, parity)
	}
}

// benchShards keeps the compiler from discarding a benchmarked call.
var benchShards [][]byte

func BenchmarkReconstructRS42_1MiB(b *testing.B) { benchReconstruct(b, 1<<20) }

// BenchmarkReconstructRS42_4KiB is the same decode of a 4 KiB stripe, where
// laying out the decode rows' tables, per call, weighs against 1 KiB shards.
func BenchmarkReconstructRS42_4KiB(b *testing.B) { benchReconstruct(b, 4<<10) }

// benchReconstruct rebuilds data shards 1 and 3 of a size-byte RS(4,2)
// stripe from the other four.
func benchReconstruct(b *testing.B, size int) {
	c, _ := NewCoder(4, 2)
	data := c.Split(benchPayload()[:size])
	parity, _ := c.Encode(data)
	all := make([][]byte, 6)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(all, data)
		copy(all[4:], parity)
		all[1], all[3] = nil, nil
		if _, err := c.Reconstruct(all); err != nil {
			b.Fatal(err)
		}
	}
}

func TestShardSize(t *testing.T) {
	c, _ := NewCoder(4, 1)
	cases := []struct{ n, want int }{{0, 0}, {1, 1}, {4, 1}, {5, 2}, {8, 2}, {9, 3}}
	for _, cse := range cases {
		if got := c.ShardSize(cse.n); got != cse.want {
			t.Errorf("ShardSize(%d) = %d, want %d", cse.n, got, cse.want)
		}
	}
}

func ExampleCoder() {
	c, _ := NewCoder(4, 2)
	data := []byte("scientific workflow intermediate data")
	shards := c.Split(data)
	parity, _ := c.Encode(shards)
	all := append(append([][]byte{}, shards...), parity...)
	all[0], all[5] = nil, nil // lose one data and one parity shard
	rec, _ := c.Reconstruct(all)
	out, _ := c.Join(rec, len(data))
	fmt.Println(string(out))
	// Output: scientific workflow intermediate data
}
