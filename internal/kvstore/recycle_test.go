package kvstore

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"
)

// A payload buffer that leaves the store is recycled for the next kept
// wire value (Store.drop, recycle), unless a reply has it on loan. These
// tests pin who may and may not see a recycled buffer, and what recycling
// saves. Under the poisonPooled hook recycle scribbles 0xDB over a buffer
// as it enters the pool, so a reader still holding it reads garbage.

// TestRecycledBufferNeverReachesAReader stalls a burst of GETRANGE
// replies of a 256 KiB value — the server has lent the stored buffer to
// one of them and is blocked writing it into a connection whose socket
// buffers are full — and, from another connection, frees that buffer: a
// DEL and a SET of a different value of the same size (what Create
// sends), or a SET over the lent key itself. Every reply the server had
// answered when the buffer was freed, the stalled one included, must read
// the original bytes, and every later one the new value: a lent buffer is
// not recycled, so neither the poison nor the SET that would take it from
// the pool reaches it.
func TestRecycledBufferNeverReachesAReader(t *testing.T) {
	poisonPooled.Store(true)
	defer poisonPooled.Store(false)
	const size, burst = 256 << 10, 16
	orig := bytes.Repeat([]byte{0x11}, size)
	next := bytes.Repeat([]byte{0x22}, size)
	cases := []struct {
		name string
		ops  int64 // store ops the free counts
		free func(*Client) error
	}{
		{"DEL then SET", 2, func(c *Client) error {
			pl := c.Pipeline()
			pl.Del("k")
			pl.Set("k", next)
			_, err := pl.Run()
			return err
		}},
		{"SET over the lent key", 1, func(c *Client) error { return c.Set("k", next) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srv, cli := startServer(t, 0, "")
			if err := cli.Set("k", orig); err != nil {
				t.Fatal(err)
			}
			st := srv.Store()
			state := func() (ops int64, loans int) {
				st.mu.Lock()
				defer st.mu.Unlock()
				return st.ops, len(st.loans)
			}
			base, _ := state()
			reader := stalledReader(t, srv)
			var cmds []byte
			for i := 0; i < burst; i++ {
				cmds = append(cmds, command([]byte("GETRANGE"), []byte("k"), []byte("0"), []byte(strconv.Itoa(size)))...)
			}
			if _, err := reader.Write(cmds); err != nil {
				t.Fatal(err)
			}
			// Stalled: a loan is out and the server answers nothing more.
			var answered int64
			for deadline := time.Now().Add(5 * time.Second); ; {
				ops, loans := state()
				time.Sleep(20 * time.Millisecond)
				if again, _ := state(); loans > 0 && again == ops {
					answered = ops - base
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the GETRANGE burst never stalled on a lent reply")
				}
			}
			if err := c.free(cli); err != nil {
				t.Fatal(err)
			}
			if ops, loans := state(); loans == 0 || ops != base+answered+c.ops {
				t.Fatalf("the stalled reply moved while the buffer was freed (%d loans, %d ops after %d answered): nothing was tested", loans, ops-base-c.ops, answered)
			}
			br := bufio.NewReader(reader)
			for i := 0; i < burst; i++ {
				want := next
				if int64(i) < answered {
					want = orig
				}
				got, isNil, err := readBulk(br)
				if err != nil || isNil {
					t.Fatalf("reply %d: nil=%v err=%v", i, isNil, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("reply %d of %d (%d answered before the free): %d bytes 0x11, %d bytes 0x22, first byte %#x",
						i, burst, answered, bytes.Count(got, orig[:1]), bytes.Count(got, next[:1]), got[0])
				}
			}
		})
	}
}

// stalledReader dials srv with fixed, small socket buffers on both ends
// (no autotuning), so that a burst of a few MiB of replies blocks the
// server's write until the test reads it.
func stalledReader(t *testing.T, srv *Server) *net.TCPConn {
	t.Helper()
	srv.mu.Lock()
	known := make(map[net.Conn]bool, len(srv.conns))
	for c := range srv.conns {
		known[c] = true
	}
	srv.mu.Unlock()
	conn, err := net.Dial("tcp", srv.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	tc := conn.(*net.TCPConn)
	if err := tc.SetReadBuffer(128 << 10); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		var server net.Conn
		for c := range srv.conns {
			if !known[c] {
				server = c
			}
		}
		srv.mu.Unlock()
		if server != nil {
			if err := server.(*net.TCPConn).SetWriteBuffer(128 << 10); err != nil {
				t.Fatal(err)
			}
			return tc
		}
		if time.Now().After(deadline) {
			t.Fatal("the server never accepted the connection")
		}
	}
}

// TestOverwriteChurnAllocatesNoPayload overwrites 64 stripe-sized values
// 8 times over the wire, as a DEL+SET burst (what Create sends) and as a
// SET over the existing key. Each buffer an overwrite frees is the one the
// next value is read into, so the process allocates under 5 % of the bytes
// written; without recycling it allocates all of them. The values must
// read back as last written. Under the race detector sync.Pool drops puts
// at random, so there only the read-back is checked.
func TestOverwriteChurnAllocatesNoPayload(t *testing.T) {
	const keys, rounds, size = 64, 8, 64 << 10
	overwrites := []struct {
		name string
		put  func(c *Client, key string, v []byte) error
	}{
		{"DEL+SET", func(c *Client, key string, v []byte) error {
			pl := c.Pipeline()
			pl.Del(key)
			pl.Set(key, v)
			replies, err := pl.Run()
			if err == nil {
				err = replies[1].Err()
			}
			return err
		}},
		{"SET over the key", func(c *Client, key string, v []byte) error { return c.Set(key, v) }},
	}
	for _, o := range overwrites {
		t.Run(o.name, func(t *testing.T) {
			_, cli := startServer(t, 0, "")
			vals := make([][]byte, rounds+1)
			for r := range vals {
				vals[r] = bytes.Repeat([]byte{byte(r + 1)}, size)
			}
			key := func(i int) string { return fmt.Sprintf("data:f#%d", i) }
			for i := 0; i < keys; i++ {
				if err := o.put(cli, key(i), vals[0]); err != nil {
					t.Fatal(err)
				}
			}
			var err error
			n := allocated(func() {
				for r := 1; r <= rounds && err == nil; r++ {
					for i := 0; i < keys && err == nil; i++ {
						err = o.put(cli, key(i), vals[r])
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			written := uint64(keys * rounds * size)
			t.Logf("%d bytes allocated for %d bytes overwritten (%.2f %%)", n, written, 100*float64(n)/float64(written))
			if !raceEnabled && n > written/20 {
				t.Errorf("overwrites allocated %d bytes, over 5 %% of the %d written", n, written)
			}
			for i := 0; i < keys; i++ {
				if got, _, err := cli.Get(key(i)); err != nil || !bytes.Equal(got, vals[rounds]) {
					t.Fatalf("%s: %d bytes, err %v, want the last value", key(i), len(got), err)
				}
			}
		})
	}
}

// TestRecyclingRules pins, with the poison hook as the witness, which
// freed buffers are recycled: an unlent one a DEL, a DELVAL or a
// replacement frees, and the value of a refused write; not a lent one,
// not the buffer an in-place write keeps, and nothing FlushAll drops.
func TestRecyclingRules(t *testing.T) {
	poisonPooled.Store(true)
	defer poisonPooled.Store(false)
	const size = 64 << 10
	value := func() []byte { return bytes.Repeat([]byte{0x5A}, size) }
	recycled := func(b []byte) bool { return bytes.Count(b, []byte{0xDB}) == len(b) }
	stored := func(s *Store, key string) []byte {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.data[key].val
	}
	cases := []struct {
		name    string
		recycle bool
		run     func(t *testing.T, s *Store) []byte // returns the buffer it freed or kept
	}{
		{"DEL", true, func(t *testing.T, s *Store) []byte {
			b := stored(s, "k")
			s.Del("k")
			return b
		}},
		{"DELVAL", true, func(t *testing.T, s *Store) []byte {
			b := stored(s, "k")
			if !s.DelIfEquals("k", value()) {
				t.Fatal("DELVAL declined")
			}
			return b
		}},
		{"replacing SET", true, func(t *testing.T, s *Store) []byte {
			b := stored(s, "k")
			if err := s.set("k", entry{val: value()}); err != nil {
				t.Fatal(err)
			}
			return b
		}},
		{"growing SETRANGE", true, func(t *testing.T, s *Store) []byte {
			b := stored(s, "k")
			if err := s.SetRange("k", size, []byte("more")); err != nil {
				t.Fatal(err)
			}
			return b
		}},
		{"DEL of a lent value", false, func(t *testing.T, s *Store) []byte {
			var enc wireEnc
			loan, _, _ := s.lendRange(&enc, "k", 0, math.MaxInt64)
			s.Del("k")
			b := bytes.Clone(loan)
			s.endLoans([][]byte{loan})
			return b
		}},
		{"in-place SETRANGE", false, func(t *testing.T, s *Store) []byte {
			if err := s.SetRange("k", 0, []byte{0x5A}); err != nil {
				t.Fatal(err)
			}
			return stored(s, "k")
		}},
		{"FlushAll", false, func(t *testing.T, s *Store) []byte {
			b := stored(s, "k")
			s.FlushAll()
			return b
		}},
		{"SETNX that lost", true, func(t *testing.T, s *Store) []byte {
			b := value()
			if ok, err := s.setNX("k", entry{val: b}); ok || err != nil {
				t.Fatalf("SETNX over a key: ok=%v err=%v", ok, err)
			}
			return b
		}},
		{"SET over a set key", true, func(t *testing.T, s *Store) []byte {
			if _, err := s.SAdd("members", "m"); err != nil {
				t.Fatal(err)
			}
			b := value()
			if err := s.set("members", entry{val: b}); err != ErrWrongType {
				t.Fatalf("SET over a set: %v", err)
			}
			return b
		}},
		{"SET refused by the cap", true, func(t *testing.T, s *Store) []byte {
			s.SetMaxMemory(s.Stats().BytesUsed + size/2)
			b := value()
			if err := s.set("other", entry{val: b}); err != ErrOOM {
				t.Fatalf("SET past the cap: %v", err)
			}
			return b
		}},
		{"whole VSET refused by the cap", true, func(t *testing.T, s *Store) []byte {
			s.SetMaxMemory(s.Stats().BytesUsed + size/2)
			b := value()
			if _, err := s.vset("other", 1, 0, nil, b); err != ErrOOM {
				t.Fatalf("VSET past the cap: %v", err)
			}
			return b
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := NewStore(0)
			if err := s.Set("k", value()); err != nil {
				t.Fatal(err)
			}
			if got := recycled(c.run(t, s)); got != c.recycle {
				t.Fatalf("buffer recycled: %v, want %v", got, c.recycle)
			}
		})
	}
}

// TestPayloadClassesBounded: only capacities of minPooledPayload bytes or
// more get a pool, and past maxPayloadClasses distinct ones a new
// capacity gets none, however many sizes clients choose.
func TestPayloadClassesBounded(t *testing.T) {
	saved := payloadClasses.Load()
	payloadClasses.Store(&map[int]*sync.Pool{})
	defer payloadClasses.Store(saved)

	if payloadPool(minPooledPayload-1, true) != nil {
		t.Fatal("a capacity under minPooledPayload got a pool")
	}
	for c := minPooledPayload; c < minPooledPayload+2*maxPayloadClasses; c++ {
		recycle(make([]byte, c))
	}
	if n := len(*payloadClasses.Load()); n != maxPayloadClasses {
		t.Fatalf("%d classes after %d distinct capacities, want the bound %d", n, 2*maxPayloadClasses, maxPayloadClasses)
	}
	if payloadPool(minPooledPayload+2*maxPayloadClasses, true) != nil {
		t.Fatal("a new capacity got a pool past the bound")
	}
	if b := pooledPayload(minPooledPayload + 2*maxPayloadClasses); len(b) != minPooledPayload+2*maxPayloadClasses {
		t.Fatalf("an unpooled capacity: %d bytes", len(b))
	}
}
