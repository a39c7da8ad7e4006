package erasure

import (
	"errors"
	"fmt"
	"sync"
)

// Coder encodes stripes into k data + m parity shards and reconstructs
// from any k survivors. It is immutable and safe for concurrent use.
type Coder struct {
	k, m   int
	parity [][]byte // m×k Cauchy coefficient matrix
	enc    []packed // parity, packed for codeInto
	nib    []byte   // parity's nibble tables where the AVX2 kernel runs
}

// coders memoizes one Coder per (k, m), whose packing every open reuses.
var coders sync.Map // [2]int -> *Coder

// ErrTooFewShards is returned when fewer than k shards survive.
var ErrTooFewShards = errors.New("erasure: too few shards to reconstruct")

// NewCoder returns a Reed–Solomon coder with k data shards and m parity
// shards. k must be in [1,128] and m in [1,128] with k+m <= 256 so the
// Cauchy construction below stays valid (x_i and y_j must be 256 distinct
// field elements).
func NewCoder(k, m int) (*Coder, error) {
	if k < 1 || m < 1 || k+m > 256 {
		return nil, fmt.Errorf("erasure: invalid shard counts k=%d m=%d", k, m)
	}
	if c, ok := coders.Load([2]int{k, m}); ok {
		return c.(*Coder), nil
	}
	// Cauchy matrix C[i][j] = 1/(x_i + y_j) with x_i = i+k, y_j = j.
	// Every square submatrix of a Cauchy matrix is invertible, which is
	// exactly the property reconstruction needs.
	parity := make([][]byte, m)
	for i := 0; i < m; i++ {
		parity[i] = make([]byte, k)
		for j := 0; j < k; j++ {
			parity[i][j] = gfInv(byte(i+k) ^ byte(j))
		}
	}
	coder := &Coder{k: k, m: m, parity: parity, enc: pack(parity)}
	if haveAVX2 {
		coder.nib = nibbles(parity)
	}
	c, _ := coders.LoadOrStore([2]int{k, m}, coder)
	return c.(*Coder), nil
}

// encode computes the m parity shards of data into parity with the
// tables NewCoder laid out.
func (c *Coder) encode(data, parity [][]byte) {
	if useAVX2(len(parity[0])) {
		codeAVX2(c.nib, data, parity)
		return
	}
	codeInto(c.enc, data, parity)
}

// K returns the number of data shards.
func (c *Coder) K() int { return c.k }

// M returns the number of parity shards.
func (c *Coder) M() int { return c.m }

// ShardSize returns the shard length for a payload of n bytes: the payload
// is zero-padded to a multiple of k.
func (c *Coder) ShardSize(n int) int {
	return (n + c.k - 1) / c.k
}

// Split slices data into k equal shards, zero-padding the tail. The shards
// are capped views of one fresh copy; data is not retained.
func (c *Coder) Split(data []byte) [][]byte {
	size := c.ShardSize(len(data))
	buf := make([]byte, c.k*size)
	copy(buf, data) // right after the make, so only the padding is zeroed
	shards := make([][]byte, c.k)
	for i := range shards {
		shards[i] = buf[i*size : (i+1)*size : (i+1)*size]
	}
	return shards
}

// Join reassembles the original payload of length n from k data shards.
// Shards larger than ShardSize(n) are accepted and the result clamped to n:
// a stripe truncated in metadata keeps its full-size shards on disk until
// the next overwrite, and reads of it must still succeed.
func (c *Coder) Join(shards [][]byte, n int) ([]byte, error) {
	out := make([]byte, n)
	if _, err := c.JoinInto(out, shards, 0, n); err != nil {
		return nil, err
	}
	return out, nil
}

// JoinInto is Join for a window: it copies payload bytes [off, off+len(dst)),
// clamped to the payload length n, from the k data shards straight into
// dst and returns how many it copied — no stripe-sized intermediate.
// Shards holding fewer than n bytes — a stripe cut short and then grown
// back — yield what they hold; the bytes past it are the caller's zeros.
func (c *Coder) JoinInto(dst []byte, shards [][]byte, off, n int) (int, error) {
	if len(shards) != c.k {
		return 0, fmt.Errorf("erasure: Join needs %d data shards, got %d", c.k, len(shards))
	}
	size := len(shards[0])
	for _, s := range shards {
		if len(s) != size {
			return 0, fmt.Errorf("erasure: shard size %d, want %d", len(s), size)
		}
	}
	n = min(n, c.k*size)
	copied := 0
	for want := min(len(dst), n-off); copied < want; {
		pos := off + copied
		copied += copy(dst[copied:want], shards[pos/size][pos%size:])
	}
	return copied, nil
}

// Encode computes the m parity shards for k equal-length data shards.
func (c *Coder) Encode(data [][]byte) ([][]byte, error) {
	if len(data) != c.k {
		return nil, fmt.Errorf("erasure: Encode needs %d data shards, got %d", c.k, len(data))
	}
	size := len(data[0])
	for _, s := range data {
		if len(s) != size {
			return nil, errors.New("erasure: data shards differ in length")
		}
	}
	parity := make([][]byte, c.m)
	for i := range parity {
		parity[i] = make([]byte, size)
	}
	c.encode(data, parity)
	return parity, nil
}

// SplitEncode is Split and Encode without copying the payload: it returns
// the k data shards as views of payload, capped so appending to one cannot
// reach the next, and computes the m parity shards into parity, whose
// buffers must each be ShardSize(len(payload)) bytes. Only a data shard
// the payload does not fill — the zero-padded tail — is a fresh copy.
// The views alias payload, which must not change until they are sent.
func (c *Coder) SplitEncode(payload []byte, parity [][]byte) [][]byte {
	size := c.ShardSize(len(payload))
	data := make([][]byte, c.k)
	for i := range data {
		if start, end := i*size, (i+1)*size; end <= len(payload) {
			data[i] = payload[start:end:end]
		} else {
			data[i] = make([]byte, size)
			copy(data[i], payload[min(start, len(payload)):])
		}
	}
	c.encode(data, parity)
	return data
}

// Reconstruct recovers all k data shards from any k survivors. shards must
// have length k+m with missing entries nil; indices 0..k-1 are data shards
// and k..k+m-1 parity shards. The returned slice holds the k data shards;
// shards that survived are returned as-is (aliased, not copied).
func (c *Coder) Reconstruct(shards [][]byte) ([][]byte, error) {
	return c.ReconstructShards(shards, dataShards[:c.k])
}

// dataShards is 0, 1, 2, ...: Reconstruct's want, the first k indices.
var dataShards = func() (idx [256]int) {
	for i := range idx {
		idx[i] = i
	}
	return idx
}()

// ReconstructShards recovers exactly the shards named in want (data or
// parity indices) from any k survivors, returning them in want order.
// This is the repair path's tool: one pass over the survivors rebuilds
// every lost shard, at one matrix row each instead of a full-stripe
// decode+re-encode. Present shards requested in want are returned aliased.
// Besides the result and the rebuilt shards, a decode makes two scratch
// allocations: one for its matrices and tables, one for slice headers.
func (c *Coder) ReconstructShards(shards [][]byte, want []int) ([][]byte, error) {
	if len(shards) != c.k+c.m {
		return nil, fmt.Errorf("erasure: Reconstruct needs %d shard slots, got %d", c.k+c.m, len(shards))
	}
	size, present := -1, 0
	for _, s := range shards {
		if s == nil {
			continue
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return nil, errors.New("erasure: surviving shards differ in length")
		}
		present++
	}
	out := make([][]byte, len(want))
	missing := 0
	for i, w := range want {
		if w < 0 || w >= c.k+c.m {
			return nil, fmt.Errorf("erasure: shard index %d out of range", w)
		}
		if out[i] = shards[w]; out[i] == nil {
			missing++
		}
	}
	if missing == 0 {
		return out, nil
	}
	if present < c.k {
		return nil, fmt.Errorf("%w: have %d of %d needed", ErrTooFewShards, present, c.k)
	}
	k := c.k
	nib := 0
	if useAVX2(size) {
		nib = 2 * 16 * k * missing
	}
	// The scratch: the k×k survivor matrix, its k×2k Gauss–Jordan
	// augmentation, a composed row per rebuilt parity shard and the
	// kernel's tables; then the rows' and the shards' slice headers.
	buf := make([]byte, k*k+2*k*k+missing*k+nib)
	buf, tables := buf[:len(buf)-nib], buf[len(buf)-nib:]
	hdrs := make([][]byte, 2*k+2*missing)
	mat, survivors := hdrs[:k:k], hdrs[k:2*k:2*k]
	rows, rebuilt := hdrs[2*k:2*k:2*k+missing], hdrs[2*k+missing:2*k+missing]

	// Build the k×k matrix mapping data shards to the first k survivors:
	// row for data shard i is the identity row e_i; row for parity shard p
	// is the parity coefficient row. Its inverse maps survivors back to
	// data shards.
	r := 0
	for idx, s := range shards {
		if s == nil || r == k {
			continue
		}
		survivors[r], mat[r] = s, buf[r*k:(r+1)*k:(r+1)*k]
		if idx < k {
			mat[r][idx] = 1
		} else {
			copy(mat[r], c.parity[idx-k])
		}
		r++
	}
	buf = buf[k*k:]
	if !invertMatrix(mat, buf[:2*k*k]) {
		return nil, errors.New("erasure: survivor matrix singular (corrupt coder state)")
	}
	buf = buf[2*k*k:]
	for i, w := range want {
		if out[i] != nil {
			continue
		}
		// row maps the chosen survivors directly to shard w: for a data
		// shard it is a row of the inverse; for parity shard p it is the
		// parity coefficient row composed with the inverse.
		var row []byte
		if w < k {
			row = mat[w]
		} else {
			row, buf = buf[:k:k], buf[k:]
			for j, coef := range c.parity[w-k] {
				for r, v := range mat[j] {
					row[r] ^= gfMul(coef, v)
				}
			}
		}
		out[i] = make([]byte, size)
		rows, rebuilt = append(rows, row), append(rebuilt, out[i])
	}
	codeRows(rows, survivors, rebuilt, tables)
	return out, nil
}
