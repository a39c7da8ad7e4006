package kvstore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"memfss/internal/erasure"
)

// The store owns every value it holds: a SET, SETNX or whole-value VSET
// over the wire keeps the buffer its value was read into, the exported Set
// keeps a copy of the caller's slice, and an in-range SetRange or VSET
// writes into the stored buffer. These tests pin that contract.

// TestWireSetKeepsItsOwnBuffer sends, in one pipelined burst, two 1 MiB
// SETs and a whole-value 1 MiB VSET followed by large SETRANGE and DELVAL
// arguments that reuse the connection's argument arena. With poisoning
// on, the arena is scribbled before every command, so a stored value still
// aliasing it would read back as 0xDB.
func TestWireSetKeepsItsOwnBuffer(t *testing.T) {
	poisonPooled.Store(true)
	defer poisonPooled.Store(false)
	_, cli := startServer(t, 0, "")

	const size = 1 << 20
	a := bytes.Repeat([]byte{0xA1}, size)
	b := bytes.Repeat([]byte{0xB2}, size)
	c := bytes.Repeat([]byte{0xC3}, 2*size)
	pl := cli.Pipeline()
	pl.Set("k1", a)
	pl.SetNX("k2", b)
	pl.VSet("k4", 7, Whole, b)
	pl.SetRange("k3", 0, c)
	pl.DelVal("k3", bytes.Repeat([]byte{0xD4}, 2*size))
	pl.SetRange("k3", size, a)
	replies, err := pl.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range replies {
		if r.Err() != nil {
			t.Fatalf("reply %d: %v", i, r.Err())
		}
	}
	for _, want := range []struct {
		key string
		val []byte
	}{{"k1", a}, {"k2", b}, {"k3", append(c[:size:size], a...)}, {"k4", erasure.WrapShard(1, 7, b)}} {
		got, ok, err := cli.Get(want.key)
		if err != nil || !ok || !bytes.Equal(got, want.val) {
			t.Fatalf("GET %s: %d bytes ok=%v err=%v, want the %d bytes stored", want.key, len(got), ok, err, len(want.val))
		}
	}
}

// TestStoreSetCopiesCallerSlice: the exported write keeps a copy, so the
// caller may reuse its slice.
func TestStoreSetCopiesCallerSlice(t *testing.T) {
	s := NewStore(0)
	v := []byte("hello")
	if err := s.Set("k", v); err != nil {
		t.Fatal(err)
	}
	copy(v, "HELLO")
	if got, _, _ := s.Get("k"); string(got) != "hello" {
		t.Fatalf("k = %q after the caller reused its slice", got)
	}
}

// TestSetRangeInPlace: a write inside the value changes it without moving
// BytesUsed or touching an earlier Get's copy; one that runs past the end
// grows the value and accounts for the growth.
func TestSetRangeInPlace(t *testing.T) {
	const stripe = 64 << 10
	s := NewStore(0)
	if err := s.Set("k", make([]byte, stripe)); err != nil {
		t.Fatal(err)
	}
	before, _, _ := s.Get("k")
	used := s.Stats().BytesUsed

	patch := bytes.Repeat([]byte{0xEE}, 4096)
	if err := s.SetRange("k", 8192, patch); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().BytesUsed; got != used {
		t.Fatalf("in-range SetRange moved BytesUsed %d -> %d", used, got)
	}
	if !bytes.Equal(before, make([]byte, stripe)) {
		t.Fatal("in-range SetRange changed an earlier Get's copy")
	}
	got, _, _ := s.Get("k")
	want := make([]byte, stripe)
	copy(want[8192:], patch)
	if !bytes.Equal(got, want) {
		t.Fatal("in-range SetRange did not land")
	}

	if err := s.SetRange("k", stripe-10, make([]byte, 20)); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := s.Get("k"); len(got) != stripe+10 || !bytes.Equal(got[8192:8192+4096], patch) {
		t.Fatalf("extending SetRange: len %d", len(got))
	}
	if got := s.Stats().BytesUsed; got != used+10 {
		t.Fatalf("extending SetRange: BytesUsed %d, want %d", got, used+10)
	}
}

// TestInPlaceSetRangeNeverTears runs GETRANGE readers of one 64 KiB key
// against writers that each overwrite the whole value in place with a
// single byte value. A read that mixes two byte values saw a torn write.
func TestInPlaceSetRangeNeverTears(t *testing.T) {
	const stripe = 64 << 10
	srv, cli := startServer(t, 0, "")
	if err := cli.Set("k", make([]byte, stripe)); err != nil {
		t.Fatal(err)
	}
	const writers, readers, rounds = 2, 4, 50
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				fill := bytes.Repeat([]byte{byte(1 + w*rounds + r)}, stripe)
				if err := cli.SetRange("k", 0, fill); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]byte, stripe)
			for r := 0; r < rounds; r++ {
				n, ok, err := cli.GetRangeInto("k", 0, stripe, dst)
				if err != nil || !ok || n != stripe {
					errCh <- fmt.Errorf("GETRANGE: n=%d ok=%v err=%v", n, ok, err)
					return
				}
				for i, b := range dst {
					if b != dst[0] {
						errCh <- fmt.Errorf("torn read: byte 0 is %#x, byte %d is %#x", dst[0], i, b)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if st := srv.Store().Stats(); st.BytesUsed != int64(stripe+len("k")+EntryOverhead) {
		t.Fatalf("BytesUsed %d after in-place writes only", st.BytesUsed)
	}
}
