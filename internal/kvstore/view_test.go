package kvstore

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strconv"
	"testing"

	"memfss/internal/erasure"
)

// A stripe value's header is kept beside its payload (entry); these tests
// hold the store to the bytes the value was written as, and measure what
// the split buys.

// TestDelValByHeaderDeclinesAfterRacingVSet: a stripe value's
// compare-and-delete may send just its header. It deletes while the
// header still matches what the mover read; a range VSET that lands
// between the read and the DELVAL stamps a new header, so the DELVAL
// declines and the write survives. A headerless value, and a value
// SETRANGE built (its header never split off), keep the full compare.
func TestDelValByHeaderDeclinesAfterRacingVSet(t *testing.T) {
	srv, cli := startServer(t, 0, "")
	stripe := erasure.WrapShard(3, 7, bytes.Repeat([]byte{0xAB}, 4096))
	hdr := func(v []byte) []byte { return v[:erasure.HeaderSize] }
	read := func(key string) []byte {
		t.Helper()
		v, ok, err := cli.Get(key)
		if err != nil || !ok {
			t.Fatalf("GET %s: ok=%v err=%v", key, ok, err)
		}
		return v
	}
	delVal := func(key string, value []byte) bool {
		t.Helper()
		pl := cli.Pipeline() // the mover releases in a burst
		pl.DelVal(key, value)
		replies, err := pl.Run()
		if err != nil || replies[0].Err() != nil {
			t.Fatalf("DELVAL %s: %v %v", key, err, replies)
		}
		return replies[0].Int == 1
	}
	for _, key := range []string{"moved", "raced"} {
		if err := cli.Set(key, stripe); err != nil {
			t.Fatal(err)
		}
	}

	if !delVal("moved", hdr(read("moved"))) {
		t.Fatal("header DELVAL of an unchanged stripe declined")
	}

	seen := read("raced")
	gen, err := vsetBurst(cli, "raced", 8, 100, []byte("racing write"))
	if err != nil || gen != 4 {
		t.Fatalf("racing VSET: gen %d err %v, want gen 4", gen, err)
	}
	if delVal("raced", hdr(seen)) || delVal("raced", seen) {
		t.Fatal("DELVAL of the mover's read deleted a value a write changed after the read")
	}
	if got := read("raced"); !bytes.Equal(got[erasure.HeaderSize+100:][:12], []byte("racing write")) {
		t.Fatalf("racing write lost: %q", got[erasure.HeaderSize+100:][:12])
	}

	plain := bytes.Repeat([]byte("x"), 40)
	if err := cli.Set("plain", plain); err != nil {
		t.Fatal(err)
	}
	if err := cli.SetRange("built", 0, stripe); err != nil {
		t.Fatal(err)
	}
	if delVal("plain", hdr(plain)) || delVal("built", hdr(stripe)) {
		t.Fatal("an 18-byte DELVAL deleted a value stored without a split-off header")
	}
	if !delVal("plain", plain) || !delVal("built", stripe) {
		t.Fatal("full DELVAL of an unchanged value declined")
	}

	raced := read("raced")
	if got, want := srv.Store().Stats().BytesUsed, int64(len("raced")+len(raced))+EntryOverhead; got != want {
		t.Fatalf("BytesUsed %d after the deletes, want %d", got, want)
	}
}

// heapObjectBytes is the heap bytes held by live and not yet swept
// objects; after runtime.GC, by live objects.
func heapObjectBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestResidentPerAccounted stores each of the benchmark workloads' value
// shapes over the wire and compares the live heap they add with the bytes
// the store accounts for them. A stripe payload kept at its exact size is
// a whole number of pages, so its heap is its accounting; the header
// stored in front of it spilled into one more page — 12.5 % more for a
// 64 KiB stripe. The record row is only logged: what a small entry really
// costs against EntryOverhead is a separate question.
func TestResidentPerAccounted(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; measured without it")
	}
	if testing.Short() {
		t.Skip("stores 64 MiB per shape")
	}
	srv, cli := startServer(t, 0, "")
	st := srv.Store()
	vset := func(size int) func(string) error {
		payload := make([]byte, size)
		return func(key string) error {
			_, err := vsetBurst(cli, key, 1, Whole, payload)
			return err
		}
	}
	set := func(value []byte) func(string) error {
		return func(key string) error { return cli.Set(key, value) }
	}
	// At most 64 MiB per shape: 256 values, but 64 of the 1 MiB one.
	shapes := []struct {
		name   string
		n      int
		put    func(key string) error
		strict bool
	}{
		{"rmw-mix 64 KiB VSET", 256, vset(64 << 10), true},
		{"ec-stream 256 KiB + 18 B shard SET", 256, set(erasure.WrapShard(1, 1, make([]byte, 256<<10))), true},
		{"dd-bag 1 MiB VSET", 64, vset(1 << 20), true},
		{"montage-meta 200 B record SET", 256, set(bytes.Repeat([]byte("r"), 200)), false},
	}
	if err := cli.Set("warm", []byte("up")); err != nil { // connection buffers outside the window
		t.Fatal(err)
	}
	measure := func() (uint64, int64) {
		runtime.GC()
		runtime.GC() // the second empties the pools' victim caches
		return heapObjectBytes(), st.Stats().BytesUsed
	}
	for _, sh := range shapes {
		st.FlushAll()
		heap0, used0 := measure()
		for i := 0; i < sh.n; i++ {
			if err := sh.put(fmt.Sprintf("data:%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		heap1, used1 := measure()
		ratio := float64(int64(heap1)-int64(heap0)) / float64(used1-used0)
		t.Logf("%-36s resident/accounted %.4f (%d values)", sh.name, ratio, sh.n)
		if sh.strict && ratio > 1.02 {
			t.Errorf("%s: resident/accounted %.4f > 1.02", sh.name, ratio)
		}
	}
	st.FlushAll()
}

// refStore is FuzzStoreView's reference: every value one plain byte
// slice, under the rules the store had when it kept the header inside the
// value. Its one addition is DELVAL's header form, which needs to know
// whether a value was written as a stripe value (split: a SET or SETNX of
// bytes starting with a valid header, or a VSET).
type refStore struct {
	data  map[string][]byte
	split map[string]bool
}

func (r *refStore) used() int64 {
	var n int64
	for k, v := range r.data {
		n += int64(len(k)+len(v)) + EntryOverhead
	}
	return n
}

func (r *refStore) set(key string, v []byte) {
	r.data[key] = bytes.Clone(v)
	r.split[key] = erasure.HasHeader(v)
}

func (r *refStore) setRange(key string, off int, v []byte) {
	old, ok := r.data[key]
	if !ok {
		old, r.split[key] = []byte{}, false // a stored value is never nil
	}
	if len(old) < off+len(v) {
		old = append(old, make([]byte, off+len(v)-len(old))...)
	}
	copy(old[off:], v)
	r.data[key] = old
}

func (r *refStore) vset(key string, id uint64, off int, value []byte, whole bool) uint64 {
	old, ok := r.data[key]
	if !ok && !whole {
		return 0 // an offset write needs the value it patches
	}
	gen, last, _, err := erasure.ParseShard(old)
	if err != nil {
		gen, old = 0, nil
	}
	if old == nil || last != id {
		gen++
	}
	if whole {
		old = make([]byte, erasure.HeaderSize+len(value))
	} else if n := erasure.HeaderSize + off + len(value); len(old) < n {
		old = append(old, make([]byte, n-len(old))...)
	}
	copy(old[erasure.HeaderSize+off:], value)
	erasure.PutHeader(old, gen, id)
	r.data[key], r.split[key] = old, true
	return gen
}

func (r *refStore) delVal(key string, v []byte) bool {
	old, ok := r.data[key]
	if !ok {
		return false
	}
	if r.split[key] && len(v) == erasure.HeaderSize {
		old = old[:erasure.HeaderSize]
	}
	if !bytes.Equal(old, v) {
		return false
	}
	delete(r.data, key)
	delete(r.split, key)
	return true
}

// fuzzInput hands out the fuzz input a byte at a time; past its end every
// byte is 0.
type fuzzInput []byte

func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

func (in *fuzzInput) bytes(n int) []byte {
	n = min(n, len(*in))
	b := (*in)[:n]
	*in = (*in)[n:]
	return b
}

// keptEntry decodes a SET, SETNX or VSET value the way the server does — its
// header split off, or not — and returns the entry the store would keep.
func keptEntry(t *testing.T, args ...[]byte) entry {
	cr := &cmdReader{br: bufio.NewReader(bytes.NewReader(command(args...)))}
	if _, _, err := cr.next(); err != nil {
		t.Fatalf("decoding %q: %v", args, err)
	}
	return cr.kept
}

// Store-view fuzz ops. Every op reads one op byte, one key byte, then its
// own arguments.
const (
	opRawSet = iota // SET n-byte value, or a decimal when the flag is odd
	opStripeSet
	opSetNX      // SETNX of a stripe value when the flag is odd, else raw
	opSetRange   // off in [0, 48): many straddle or overwrite bytes 0-18
	opVSetWhole  // id in [0, 4): retried IDs are common
	opVSetRange  // id in [0, 4), off in [0, 40)
	opDelValFull // the key's current value, or one byte of it flipped
	opDelValHdr  // the key's first 18 bytes, as read
	opGetRange
	opIncr
	numStoreOps
)

// FuzzStoreView applies one op sequence to a Store and to refStore and
// requires every read, every BytesUsed and every VSET generation to
// agree: keeping a stripe header beside the payload must not change a
// byte any client sees.
func FuzzStoreView(f *testing.F) {
	hdrSet := func(key, gen, id, n byte) []byte { return []byte{opStripeSet, key, gen, id, n} }
	seq := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	f.Add(seq(hdrSet(0, 2, 1, 8), []byte{opVSetRange, 0, 1, 3, 4, 'a', 'b', 'c', 'd'}, []byte{opDelValHdr, 0}))
	f.Add(seq(hdrSet(1, 0, 3, 30), []byte{opSetRange, 1, 10, 12}, bytes.Repeat([]byte{'z'}, 12), []byte{opGetRange, 1, 0, 63}))
	f.Add(seq(hdrSet(2, 1, 1, 4), []byte{opSetRange, 2, 0, 2, '1', '2'}, []byte{opVSetRange, 2, 2, 0, 1, 'q'}))
	f.Add(seq([]byte{opSetRange, 0, 0, 20}, erasure.WrapShard(5, 2, []byte("xy")), []byte{opVSetRange, 0, 2, 1, 1, 'w'}, []byte{opDelValHdr, 0}))
	f.Add(seq([]byte{opVSetWhole, 1, 2, 5, 'h', 'e', 'l', 'l', 'o'}, []byte{opVSetWhole, 1, 2, 0}, []byte{opDelValFull, 1, 0}))
	f.Add(seq([]byte{opRawSet, 0, 1, 41}, []byte{opIncr, 0}, []byte{opIncr, 0}, []byte{opSetNX, 0, 1, 2, 2, 3}))
	f.Add(seq(hdrSet(0, 9, 9, 0), []byte{opDelValFull, 0, 1}, []byte{opSetRange, 0, 17, 3, 'a', 'b', 'c'}, []byte{opDelValHdr, 0}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		in := fuzzInput(raw)
		s := NewStore(0)
		ref := &refStore{data: map[string][]byte{}, split: map[string]bool{}}
		for step := 0; len(in) > 0; step++ {
			op, key := int(in.byte())%numStoreOps, fmt.Sprint("k", in.byte()%3)
			switch op {
			case opRawSet:
				v := in.bytes(int(in.byte() % 40))
				if in.byte()%2 == 1 {
					v = strconv.AppendInt(nil, int64(int8(in.byte())), 10)
				}
				s.set(key, keptEntry(t, []byte("SET"), []byte(key), v))
				ref.set(key, v)
			case opStripeSet:
				gen, id := uint64(in.byte()%4), uint64(in.byte()%4)
				v := erasure.WrapShard(gen, id, in.bytes(int(in.byte()%40)))
				s.set(key, keptEntry(t, []byte("SET"), []byte(key), v))
				ref.set(key, v)
			case opSetNX:
				v := in.bytes(int(in.byte() % 24))
				if in.byte()%2 == 1 {
					v = erasure.WrapShard(uint64(in.byte()%4), uint64(in.byte()%4), v)
				}
				ok, err := s.setNX(key, keptEntry(t, []byte("SETNX"), []byte(key), v))
				_, exists := ref.data[key]
				if err != nil || ok == exists {
					t.Fatalf("step %d SETNX %s: stored=%v err=%v, key existed=%v", step, key, ok, err, exists)
				}
				if ok {
					ref.set(key, v)
				}
			case opSetRange:
				off := int(in.byte() % 48)
				v := in.bytes(int(in.byte() % 24))
				if err := s.SetRange(key, int64(off), v); err != nil {
					t.Fatalf("step %d SETRANGE: %v", step, err)
				}
				ref.setRange(key, off, v)
			case opVSetWhole, opVSetRange:
				id, off := uint64(in.byte()%4), 0
				if op == opVSetRange {
					off = int(in.byte() % 40)
				}
				v := in.bytes(int(in.byte() % 40))
				var gen uint64
				var err error
				if op == opVSetWhole {
					k := keptEntry(t, []byte("VSET"), []byte(key), []byte(strconv.FormatUint(id, 10)), v)
					gen, err = s.vset(key, id, 0, nil, k.val)
				} else {
					gen, err = s.vset(key, id, int64(off), v, nil)
				}
				if want := ref.vset(key, id, off, v, op == opVSetWhole); err != nil || gen != want {
					t.Fatalf("step %d VSET %s id %d: gen %d err %v, want gen %d", step, key, id, gen, err, want)
				}
			case opDelValFull, opDelValHdr:
				v := bytes.Clone(ref.data[key])
				if op == opDelValHdr {
					v = v[:min(len(v), erasure.HeaderSize)]
				}
				if flip := int(in.byte()); flip > 0 && len(v) > 0 {
					v[flip%len(v)] ^= 0x01
				}
				if got, want := s.DelIfEquals(key, v), ref.delVal(key, v); got != want {
					t.Fatalf("step %d DELVAL %s %q: deleted=%v, want %v", step, key, v, got, want)
				}
			case opGetRange:
				off, n := int64(in.byte()%64), int64(in.byte()%64)
				got, ok, err := s.GetRangeAppend(nil, key, off, n)
				v, exists := ref.data[key]
				want := v[min(off, int64(len(v))):min(off+n, int64(len(v)))]
				if err != nil || ok != exists || !bytes.Equal(got, want) {
					t.Fatalf("step %d GETRANGE %s %d %d: %q ok=%v err=%v, want %q ok=%v", step, key, off, n, got, ok, err, want, exists)
				}
			case opIncr:
				got, err := s.Incr(key)
				want, werr := strconv.ParseInt(string(ref.data[key]), 10, 64)
				if _, exists := ref.data[key]; !exists {
					want, werr = 0, nil
				}
				if (err != nil) != (werr != nil) || (err == nil && got != want+1) {
					t.Fatalf("step %d INCR %s: %d err %v, want %d err %v", step, key, got, err, want+1, werr)
				}
				if err == nil {
					ref.set(key, strconv.AppendInt(nil, got, 10))
				}
			}
			if got, want := s.Stats().BytesUsed, ref.used(); got != want {
				t.Fatalf("step %d (op %d on %s): BytesUsed %d, want %d", step, op, key, got, want)
			}
			got, ok, err := s.Get(key)
			if want, exists := ref.data[key]; err != nil || ok != exists || !bytes.Equal(got, want) {
				t.Fatalf("step %d (op %d on %s): GET %q ok=%v err=%v, want %q ok=%v", step, op, key, got, ok, err, want, exists)
			}
		}
		keys := []string{"k0", "k1", "k2"}
		for i, got := range s.MGet(keys) {
			if want := ref.data[keys[i]]; !bytes.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("MGET %s: %q, want %q", keys[i], got, want)
			}
		}
	})
}
