package kvstore

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"memfss/internal/erasure"
	"memfss/internal/faultwrap"
)

// heldShardClient stores one 18-byte-header shard of body bytes on a
// fresh server, behind a proxy that, once hold is called, delays every
// reply by delay. The client holds one warm pooled connection and counts
// its Observer calls.
func heldShardClient(t *testing.T, body int, delay time.Duration) (cli *Client, observed *atomic.Int64, hold func()) {
	t.Helper()
	srv, direct := startServer(t, 0, "")
	value := make([]byte, erasure.HeaderSize+body)
	erasure.PutHeader(value, 3, 7)
	for i := erasure.HeaderSize; i < len(value); i++ {
		value[i] = byte(i)
	}
	if err := direct.Set("shard", value); err != nil {
		t.Fatal(err)
	}
	proxy, err := faultwrap.New(srv.ln.Addr().String(), faultwrap.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	observed = new(atomic.Int64)
	cli = Dial(proxy.Addr(), DialOptions{Timeout: 5 * time.Second, Observer: func(error) { observed.Add(1) }})
	t.Cleanup(func() { cli.Close() })
	if err := cli.Ping(); err != nil { // the warm connection the aborted run reads on
		t.Fatal(err)
	}
	observed.Store(0)
	return cli, observed, func() {
		proxy.SetPlan(faultwrap.Plan{Reply: faultwrap.DirPlan{DelayProb: 1, Delay: delay}})
	}
}

// poolCounts reads the pool's live and idle connection counts.
func poolCounts(c *Client) (live, idle int) {
	c.poolMu.Lock()
	defer c.poolMu.Unlock()
	return c.total, len(c.idle)
}

// TestAbortInterruptsHeldReply aborts a shard read whose reply the proxy
// holds back: the run returns ErrAborted within a few milliseconds, is
// neither retried nor reported to the Observer, writes nothing into its
// buffers once it has returned, and its interrupted connection leaves the
// pool.
func TestAbortInterruptsHeldReply(t *testing.T) {
	const delay = 300 * time.Millisecond
	cli, observed, hold := heldShardClient(t, 4096, delay)
	hold()
	hdr, dst := make([]byte, erasure.HeaderSize), bytes.Repeat([]byte{0xAA}, 4096)
	pl := cli.Pipeline()
	pl.GetShardInto("shard", hdr, dst)
	abort := new(Abort)
	ops, attempts := cli.Ops(), cli.Attempts()
	done := make(chan error, 1)
	go func() {
		_, err := pl.RunAbortable(abort, nil)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond) // the burst is out; its reply is held
	start := time.Now()
	abort.Abort()
	var err error
	select {
	case err = <-done:
	case <-time.After(delay / 2):
		t.Fatal("the aborted run waited for its held reply")
	}
	if took := time.Since(start); !errors.Is(err, ErrAborted) || took > 50*time.Millisecond {
		t.Fatalf("aborted run: err %v after %v, want ErrAborted within a few ms", err, took)
	}
	// The buffers are the caller's again: the held reply must not land.
	for i := range dst {
		dst[i] = 0x55
	}
	for i := range hdr {
		hdr[i] = 0x55
	}
	time.Sleep(delay + 100*time.Millisecond)
	if !bytes.Equal(dst, bytes.Repeat([]byte{0x55}, len(dst))) || !bytes.Equal(hdr, bytes.Repeat([]byte{0x55}, len(hdr))) {
		t.Fatal("a buffer was written after the aborted run returned")
	}
	if n := observed.Load(); n != 0 {
		t.Fatalf("the Observer saw the abort %d times; an abort is no evidence against the node", n)
	}
	if dOps, dAttempts := cli.Ops()-ops, cli.Attempts()-attempts; dOps != 1 || dAttempts != 1 {
		t.Fatalf("aborted run: %d ops, %d attempts; want one of each, no retry", dOps, dAttempts)
	}
	if live, idle := poolCounts(cli); live != 0 || idle != 0 {
		t.Fatalf("pool after the abort: %d live, %d idle; the interrupted connection must go", live, idle)
	}
	// A run on the same client after the abort reads the shard whole.
	hdr2, dst2 := make([]byte, erasure.HeaderSize), make([]byte, 4096)
	pl.GetShardInto("shard", hdr2, dst2)
	replies, err := pl.Run()
	if last := erasure.HeaderSize + 4095; err != nil || replies[0].Int != erasure.HeaderSize+4096 || dst2[4095] != byte(last) {
		t.Fatalf("run after the abort: err %v, %+v", err, replies)
	}
	if live, idle := poolCounts(cli); live != 1 || idle != 1 {
		t.Fatalf("pool after the next run: %d live, %d idle, want 1 and 1", live, idle)
	}
}

// TestAbortBeforeSendSendsNothing aborts before the run starts: the burst
// never reaches the store, and the connection it checked out, unused, goes
// back to the pool.
func TestAbortBeforeSendSendsNothing(t *testing.T) {
	srv, cli := startServer(t, 0, "")
	if err := cli.Ping(); err != nil {
		t.Fatal(err)
	}
	abort := new(Abort)
	abort.Abort()
	pl := cli.Pipeline()
	pl.Set("never", []byte("v"))
	if _, err := pl.RunAbortable(abort, nil); !errors.Is(err, ErrAborted) {
		t.Fatalf("run under a spent abort: %v, want ErrAborted", err)
	}
	if _, ok, _ := srv.Store().Get("never"); ok {
		t.Fatal("an aborted burst reached the store")
	}
	if live, idle := poolCounts(cli); live != 1 || idle != 1 {
		t.Fatalf("pool: %d live, %d idle; the unused connection must stay", live, idle)
	}
}

// TestAbortManyRuns aborts one Abort carrying concurrent runs, every one
// held back: each returns ErrAborted, and Abort returns only once none
// of them is reading any more.
func TestAbortManyRuns(t *testing.T) {
	cli, _, hold := heldShardClient(t, 1024, 300*time.Millisecond)
	hold()
	abort := new(Abort)
	const runs = 3
	done := make(chan error, runs)
	for i := 0; i < runs; i++ {
		go func() {
			pl := cli.Pipeline()
			pl.GetShardInto("shard", make([]byte, erasure.HeaderSize), make([]byte, 1024))
			_, err := pl.RunAbortable(abort, nil)
			done <- err
		}()
	}
	time.Sleep(50 * time.Millisecond)
	abort.Abort()
	for i := 0; i < runs; i++ {
		select {
		case err := <-done:
			if !errors.Is(err, ErrAborted) {
				t.Fatalf("run %d: %v, want ErrAborted", i, err)
			}
		case <-time.After(100 * time.Millisecond):
			t.Fatalf("run %d still out after the abort", i)
		}
	}
	time.Sleep(10 * time.Millisecond)
	if live, idle := poolCounts(cli); live != idle {
		t.Fatalf("pool: %d live, %d idle; a run still holds a connection", live, idle)
	}
}

// TestGetShardIntoDecodes pins how GetShardInto splits a reply: the first
// HeaderSize bytes to hdr, the rest to dst, Int the value bytes given.
func TestGetShardIntoDecodes(t *testing.T) {
	_, cli := startServer(t, 0, "")
	whole := erasure.WrapShard(5, 9, bytes.Repeat([]byte{0x11}, 100))
	for key, v := range map[string][]byte{"whole": whole, "short": whole[:10], "half": whole[:erasure.HeaderSize+50]} {
		if err := cli.Set(key, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cli.SAdd("set", "m"); err != nil {
		t.Fatal(err)
	}
	type buf struct{ hdr, dst, canary []byte }
	bufs := make([]buf, 5)
	pl := cli.Pipeline()
	for i, key := range []string{"whole", "short", "half", "missing", "set"} {
		backing := bytes.Repeat([]byte{0xC5}, erasure.HeaderSize+100+8)
		bufs[i] = buf{hdr: backing[:erasure.HeaderSize], dst: backing[erasure.HeaderSize : erasure.HeaderSize+100], canary: backing[erasure.HeaderSize+100:]}
		pl.GetShardInto(key, bufs[i].hdr, bufs[i].dst)
	}
	replies, err := pl.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bufs {
		if !bytes.Equal(b.canary, bytes.Repeat([]byte{0xC5}, 8)) {
			t.Fatalf("reply %d wrote past dst", i)
		}
	}
	if r := replies[0]; r.Int != int64(len(whole)) || !bytes.Equal(bufs[0].hdr, whole[:erasure.HeaderSize]) || !bytes.Equal(r.Bulk, whole[erasure.HeaderSize:]) {
		t.Fatalf("whole shard: Int %d, Bulk %d bytes", r.Int, len(r.Bulk))
	}
	if r := replies[1]; r.Int != 10 || len(r.Bulk) != 0 || !bytes.Equal(bufs[1].hdr[:10], whole[:10]) || bufs[1].hdr[10] != 0xC5 {
		t.Fatalf("value shorter than the header: Int %d, Bulk %d bytes, hdr %x", r.Int, len(r.Bulk), bufs[1].hdr)
	}
	if r := replies[2]; r.Int != erasure.HeaderSize+50 || len(r.Bulk) != 50 || bufs[2].dst[50] != 0xC5 {
		t.Fatalf("short body: Int %d, Bulk %d bytes", r.Int, len(r.Bulk))
	}
	if r := replies[3]; !r.Nil {
		t.Fatalf("missing key: %+v", r)
	}
	if r := replies[4]; r.Err() == nil || bufs[4].hdr[0] != 0xC5 || bufs[4].dst[0] != 0xC5 {
		t.Fatalf("error reply: %+v, or it wrote a buffer", r)
	}
}

// TestGetShardIntoLongReplyIsProtocolError answers a GetShardInto with
// more bytes than hdr+dst hold: the run fails as a broken connection and
// writes nothing past dst.
func TestGetShardIntoLongReplyIsProtocolError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, _, err := newCmdReader(conn).next(); err != nil {
					return
				}
				reply := append([]byte("$40\r\n"), bytes.Repeat([]byte{0x22}, 40)...)
				_, _ = conn.Write(append(reply, "\r\n"...))
			}()
		}
	}()
	cli := Dial(ln.Addr().String(), DialOptions{Timeout: 2 * time.Second, MaxAttempts: 1})
	defer cli.Close()
	backing := bytes.Repeat([]byte{0xC5}, erasure.HeaderSize+10+8)
	pl := cli.Pipeline()
	pl.GetShardInto("k", backing[:erasure.HeaderSize], backing[erasure.HeaderSize:erasure.HeaderSize+10])
	if _, err := pl.Run(); !errors.Is(err, ErrUnavailable) || !strings.Contains(err.Error(), "exceeds destination") {
		t.Fatalf("40-byte reply into 28 bytes: %v, want a protocol error", err)
	}
	if !bytes.Equal(backing, bytes.Repeat([]byte{0xC5}, len(backing))) {
		t.Fatal("a refused reply wrote the buffers")
	}
}
