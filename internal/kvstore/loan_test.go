package kvstore

import (
	"bytes"
	"io"
	"math"
	"net"
	"strconv"
	"testing"
	"time"

	"memfss/internal/erasure"
)

// A GET or GETRANGE reply lends the stored payload to the connection until
// the reply is written (Store.lendRange). These tests pin the two halves of
// that contract: an in-place write never changes lent bytes, and every
// loan comes back, however the connection ends.

// TestLentRangeCopiesOnWrite lends a whole stripe value, writes into it in
// place three ways, and checks that the lent bytes kept their value while
// the store took the write. The third value is headerless, built by a
// SETRANGE to start with a valid header: the VSET keeps its payload as the
// sub-slice val[18:], so only a loan tracked per buffer, not per slice,
// sees that the buffer is lent. Once the loan is returned, the same write
// lands in place.
func TestLentRangeCopiesOnWrite(t *testing.T) {
	const size = 64 << 10
	stripe := erasure.WrapShard(1, 1, bytes.Repeat([]byte{0x11}, size))
	cases := []struct {
		name  string
		store func(*Store) error
		write func(s *Store, fill []byte) error
	}{
		{"SetRange", func(s *Store) error { return s.Set("k", stripe) },
			func(s *Store, fill []byte) error { return s.SetRange("k", erasure.HeaderSize, fill) }},
		{"range VSET", func(s *Store) error { return s.Set("k", stripe) },
			func(s *Store, fill []byte) error { _, err := s.vset("k", 2, 0, fill, nil); return err }},
		{"range VSET over a SETRANGE-built header", func(s *Store) error { return s.SetRange("k", 0, stripe) },
			func(s *Store, fill []byte) error { _, err := s.vset("k", 2, 0, fill, nil); return err }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := NewStore(0)
			if err := c.store(s); err != nil {
				t.Fatal(err)
			}
			var enc wireEnc
			loan, ok, err := s.lendRange(&enc, "k", 0, math.MaxInt64)
			if err != nil || !ok || len(loan) < size {
				t.Fatalf("lendRange: %d bytes lent, ok=%v err=%v", len(loan), ok, err)
			}
			lent := bytes.Clone(loan)
			fill := bytes.Repeat([]byte{0x22}, 4096)
			if err := c.write(s, fill); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(loan, lent) {
				t.Fatal("an in-place write changed lent bytes")
			}
			got, _, _ := s.Get("k")
			if !bytes.Equal(got[erasure.HeaderSize:erasure.HeaderSize+len(fill)], fill) ||
				!bytes.Equal(got[erasure.HeaderSize+len(fill):], stripe[erasure.HeaderSize+len(fill):]) {
				t.Fatal("the store does not hold the write")
			}
			s.endLoans([][]byte{loan})

			loan, _, _ = s.lendRange(&enc, "k", erasure.HeaderSize, math.MaxInt64)
			s.endLoans([][]byte{loan})
			fill = bytes.Repeat([]byte{0x33}, 4096)
			if err := c.write(s, fill); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(loan[:len(fill)], fill) {
				t.Fatal("with the loan returned, the write did not land in the stored buffer")
			}
		})
	}
}

// TestLentGetRangeNeverTears pipelines 1 MiB GETRANGEs of a stripe's
// payload on one connection while another overwrites the whole payload
// in place with range VSETs, each with a single byte value. A reply that
// mixes two byte values read a buffer a write changed while it was lent.
func TestLentGetRangeNeverTears(t *testing.T) {
	const size, depth, rounds = 1 << 20, 4, 16
	srv, reader := startServer(t, 0, "")
	writer := Dial(srv.ln.Addr().String(), DialOptions{Timeout: 5 * time.Second})
	t.Cleanup(func() { writer.Close() })
	if _, err := vsetBurst(writer, "k", 1, Whole, make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for r := 0; r < rounds; r++ {
			if _, err := vsetBurst(writer, "k", uint64(r+2), 0, bytes.Repeat([]byte{byte(r + 1)}, size)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	dsts := make([][]byte, depth)
	for i := range dsts {
		dsts[i] = make([]byte, size)
	}
	for finished := false; !finished; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			finished = true
		default:
		}
		pl := reader.Pipeline()
		for _, dst := range dsts {
			pl.GetRangeInto("k", erasure.HeaderSize, size, dst)
		}
		replies, err := pl.Run()
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range replies {
			if r.Err() != nil || len(r.Bulk) != size {
				t.Fatalf("reply %d: %d bytes, err=%v", i, len(r.Bulk), r.Err())
			}
			if n := bytes.Count(dsts[i], dsts[i][:1]); n != size {
				t.Fatalf("reply %d is torn: %d of %d bytes are %#x", i, n, size, dsts[i][0])
			}
		}
	}
}

// TestLoansReturnedWhenConnectionDrops ends a connection mid-burst two
// ways — a half-close with lent replies still queued behind an unfinished
// command, and a reset while 1 MiB replies are being written — and then
// checks that an in-range SetRange on the key writes in place, allocating
// nothing: a leaked loan would make it copy the value.
func TestLoansReturnedWhenConnectionDrops(t *testing.T) {
	const size = 1 << 20
	srv, cli := startServer(t, 0, "")
	if err := cli.Set("k", make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	idle := len(srv.conns)
	srv.mu.Unlock()
	getRanges := func(n int, length int64) []byte {
		var b []byte
		for i := 0; i < n; i++ {
			b = append(b, command([]byte("GETRANGE"), []byte("k"), []byte("0"), []byte(strconv.FormatInt(length, 10)))...)
		}
		return b
	}
	unfinished := []byte("*4\r\n$8\r\nGETRANGE\r\n$1\r\nk\r\n")

	drops := []struct {
		name string
		run  func(c *net.TCPConn) error
	}{
		{"half-close with replies queued", func(c *net.TCPConn) error {
			drained := make(chan error, 1)
			go func() { _, err := io.Copy(io.Discard, c); drained <- err }()
			burst := append(getRanges(4, size), getRanges(8, 4096)...)
			if _, err := c.Write(append(burst, unfinished...)); err != nil {
				return err
			}
			if err := c.CloseWrite(); err != nil {
				return err
			}
			return <-drained
		}},
		{"reset while replies are written", func(c *net.TCPConn) error {
			if _, err := c.Write(getRanges(32, size)); err != nil {
				return err
			}
			if _, err := io.ReadFull(c, make([]byte, 64<<10)); err != nil {
				return err
			}
			return c.SetLinger(0)
		}},
	}
	for _, d := range drops {
		t.Run(d.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", srv.ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			err = d.run(conn.(*net.TCPConn))
			conn.Close()
			if err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				srv.mu.Lock()
				n := len(srv.conns)
				srv.mu.Unlock()
				if n <= idle {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the server did not drop the connection")
				}
			}
			// Measure the first write: a leaked loan costs one copy, after
			// which the key holds a fresh buffer and the leaked one stays
			// pinned by the loan table.
			patch := make([]byte, 4096)
			if n := allocated(func() { err = srv.Store().SetRange("k", 4096, patch) }); n != 0 || err != nil {
				t.Fatalf("in-range SetRange after the drop allocated %d bytes (err %v), want 0: a loan leaked", n, err)
			}
		})
	}
}
