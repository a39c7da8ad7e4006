package kvstore

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPipelineBasic(t *testing.T) {
	_, cli := startServer(t, 0, "")
	pl := cli.Pipeline()
	pl.Set("a", []byte("1"))
	pl.Set("b", []byte("2"))
	pl.GetRangeInto("a", 0, 8, make([]byte, 8))
	pl.GetRangeInto("missing", 0, 8, make([]byte, 8))
	pl.Del("b")
	pl.SetNX("a", []byte("3"))
	replies, err := pl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 6 {
		t.Fatalf("%d replies", len(replies))
	}
	if replies[0].Str != "OK" || replies[1].Str != "OK" {
		t.Fatalf("SET replies: %+v %+v", replies[0], replies[1])
	}
	if string(replies[2].Bulk) != "1" {
		t.Fatalf("GETRANGE a = %q", replies[2].Bulk)
	}
	if !replies[3].Nil {
		t.Fatalf("GETRANGE missing = %+v", replies[3])
	}
	if replies[4].Int != 1 || replies[5].Int != 0 {
		t.Fatalf("DEL/SETNX = %+v %+v", replies[4], replies[5])
	}
	// The queue drains on success; a reused pipeline starts empty.
	if pl.Len() != 0 {
		t.Fatalf("queue not cleared: %d", pl.Len())
	}
	if replies, err := pl.Run(); err != nil || replies != nil {
		t.Fatalf("empty Run = %v %v", replies, err)
	}
}

func TestPipelineErrorRepliesDoNotAbortBurst(t *testing.T) {
	_, cli := startServer(t, 0, "")
	if _, err := cli.SAdd("set-key", "m"); err != nil {
		t.Fatal(err)
	}
	pl := cli.Pipeline()
	pl.Set("ok-key", []byte("v"))
	pl.GetRangeInto("set-key", 0, 1, make([]byte, 1)) // WRONGTYPE
	pl.GetRangeInto("ok-key", 0, 1, make([]byte, 1))
	replies, err := pl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if replies[0].Err() != nil {
		t.Fatalf("first command failed: %v", replies[0].Err())
	}
	if replies[1].Err() == nil || !strings.Contains(replies[1].Err().Error(), "WRONGTYPE") {
		t.Fatalf("wrong-type reply = %+v", replies[1])
	}
	if string(replies[2].Bulk) != "v" {
		t.Fatalf("command after error reply lost: %+v", replies[2])
	}
}

// TestMGetAndBatchedDelOverWire covers the two multi-key verbs that ship:
// MGET, and the pipelined multi-key DEL the FS layer drops a file's
// stripes with — it removes exactly the named keys, reports per command
// how many existed, and leaves neighbours under the same prefix alone.
func TestMGetAndBatchedDelOverWire(t *testing.T) {
	srv, cli := startServer(t, 0, "")
	for k, v := range map[string]string{"data:f#0": "s0", "data:f#1": "s1", "data:f#10": "s10", "meta:x": "m"} {
		if err := cli.Set(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	vals, err := cli.MGet("data:f#0", "ghost", "data:f#1")
	if err != nil {
		t.Fatal(err)
	}
	if string(vals[0]) != "s0" || vals[1] != nil || string(vals[2]) != "s1" {
		t.Fatalf("MGet = %q", vals)
	}
	pl := cli.Pipeline()
	pl.Del("data:f#0", "data:f#1")
	pl.Del("data:f#1", "ghost")
	replies, err := pl.Run()
	if err != nil || len(replies) != 2 {
		t.Fatalf("Run = %d replies, %v", len(replies), err)
	}
	if replies[0].Int != 2 || replies[1].Int != 0 {
		t.Fatalf("DEL counts = %d, %d; want 2, 0", replies[0].Int, replies[1].Int)
	}
	if keys := srv.Store().KeysN("", 0); len(keys) != 2 {
		t.Fatalf("keys after DEL = %q, want data:f#10 and meta:x", keys)
	}
}

// TestClientConcurrentPipelineStress shares one client between many
// goroutines mixing single commands and pipelines; run under -race it
// checks the pool and pipeline bookkeeping for data races.
func TestClientConcurrentPipelineStress(t *testing.T) {
	srv, _ := startServer(t, 0, "pw")
	addr := srv.ln.Addr().String()
	cli := Dial(addr, DialOptions{Password: "pw", PoolSize: 4, Timeout: 5 * time.Second})
	defer cli.Close()
	const goroutines = 16
	const rounds = 30
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				pl := cli.Pipeline()
				for j := 0; j < 8; j++ {
					pl.Set(fmt.Sprintf("g%d-k%d", g, j), []byte{byte(i)})
				}
				for j := 0; j < 8; j++ {
					pl.GetRangeInto(fmt.Sprintf("g%d-k%d", g, j), 0, 1, make([]byte, 1))
				}
				replies, err := pl.Run()
				if err != nil {
					errCh <- err
					return
				}
				for j := 8; j < 16; j++ {
					if string(replies[j].Bulk) != string([]byte{byte(i)}) {
						errCh <- fmt.Errorf("g%d round %d: reply %d = %q", g, i, j, replies[j].Bulk)
						return
					}
				}
				// Interleave plain commands on the same pool.
				if err := cli.Set(fmt.Sprintf("g%d-plain", g), []byte("x")); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// flakyServer serves the real dispatch loop but closes each of the first
// `failConns` connections after `replyLimit` replies — the "server dies
// mid-pipeline after k of n replies" fault.
func flakyServer(t *testing.T, replyLimit int, failConns int32) (addr string, store *Store) {
	t.Helper()
	srv := NewServer(NewStore(0), "")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var conns int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			n := atomic.AddInt32(&conns, 1)
			go func(conn net.Conn, failing bool) {
				defer conn.Close()
				cr := newCmdReader(conn)
				rw := &replyWriter{conn: conn}
				replies := 0
				for {
					cmd, args, err := cr.next()
					if err != nil {
						return
					}
					if failing && replies == replyLimit {
						return // k replies sent, socket dies mid-burst
					}
					srv.dispatch(rw, cmd, args[1:], cr.kept)
					if err := rw.flush(); err != nil {
						return
					}
					replies++
				}
			}(conn, n <= failConns)
		}
	}()
	return ln.Addr().String(), srv.Store()
}

func TestPipelineMidConnectionDeathRecovers(t *testing.T) {
	// First connection dies after 3 of 8 replies; the retry lands on a
	// healthy connection and the whole burst succeeds.
	addr, store := flakyServer(t, 3, 1)
	cli := Dial(addr, DialOptions{Timeout: 2 * time.Second})
	defer cli.Close()
	pl := cli.Pipeline()
	for i := 0; i < 8; i++ {
		pl.Set(fmt.Sprintf("k%d", i), []byte("v"))
	}
	replies, err := pl.Run()
	if err != nil {
		t.Fatalf("pipeline did not recover: %v", err)
	}
	if len(replies) != 8 {
		t.Fatalf("%d replies", len(replies))
	}
	for i, r := range replies {
		if r.Err() != nil {
			t.Fatalf("reply %d: %v", i, r.Err())
		}
	}
	if st := store.Stats(); st.NumKeys != 8 {
		t.Fatalf("NumKeys = %d", st.NumKeys)
	}
}

func TestPipelineAllConnectionsDying(t *testing.T) {
	// Every connection dies mid-burst: Run must fail with a diagnosable
	// error naming the attempt count, not hang or return short replies.
	addr, _ := flakyServer(t, 1, 1<<30)
	cli := Dial(addr, DialOptions{Timeout: 2 * time.Second})
	defer cli.Close()
	pl := cli.Pipeline()
	for i := 0; i < 4; i++ {
		pl.Set(fmt.Sprintf("k%d", i), []byte("v"))
	}
	_, err := pl.Run()
	if err == nil {
		t.Fatal("pipeline against dying server succeeded")
	}
	if !strings.Contains(err.Error(), "attempts") || !strings.Contains(err.Error(), "pipeline") {
		t.Fatalf("undiagnosable error: %v", err)
	}
}

func TestDoErrorNamesCommandAndAttempts(t *testing.T) {
	// A server that accepts and instantly closes every connection makes
	// each round trip fail; the surfaced error must name the command.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
	cli := Dial(ln.Addr().String(), DialOptions{Timeout: 2 * time.Second})
	defer cli.Close()
	err = cli.Set("k", []byte("v"))
	if err == nil {
		t.Fatal("Set against dead store succeeded")
	}
	if !strings.Contains(err.Error(), "SET") || !strings.Contains(err.Error(), "attempts") {
		t.Fatalf("error does not name command/attempts: %v", err)
	}
}

// TestPipelineBurstSingleFlush verifies the server actually batches a
// pipelined burst: total ops advance by the burst size and the data round
// trips bit-exactly, including binary payloads.
func TestPipelineBinaryBurst(t *testing.T) {
	srv, cli := startServer(t, 0, "")
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	payload = append(payload, []byte("\r\n$-1\r\n*3\r\n")...)
	pl := cli.Pipeline()
	const n = 64
	for i := 0; i < n; i++ {
		pl.Set(fmt.Sprintf("bin%d", i), payload)
	}
	for i := 0; i < n; i++ {
		pl.GetRangeInto(fmt.Sprintf("bin%d", i), 0, int64(len(payload)), make([]byte, len(payload)))
	}
	replies, err := pl.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := n; i < 2*n; i++ {
		if !bytes.Equal(replies[i].Bulk, payload) {
			t.Fatalf("binary payload %d corrupted in burst", i-n)
		}
	}
	if st := srv.Store().Stats(); st.NumKeys != n {
		t.Fatalf("NumKeys = %d", st.NumKeys)
	}
}

// TestPipelineSetHeaderBodyTape queues a stripe shard the way core sends
// one, an 18-byte header then a body referenced where it lies, beside a
// SET of the joined value. For bodies copied into the header arena and
// bodies past zeroCopyMin alike, the two tapes must put the same bytes on
// the wire, on the first send and on a replay, and the store must hold
// the joined value.
func TestPipelineSetHeaderBodyTape(t *testing.T) {
	srv, cli := startServer(t, 0, "")
	hdr := append([]byte{0xE5, 1}, bytes.Repeat([]byte{7}, 16)...)
	for _, n := range []int{0, 1, zeroCopyMin - len(hdr), zeroCopyMin - 1, zeroCopyMin, 256 << 10} {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(i*31 + n)
		}
		joined := append(append([]byte{}, hdr...), body...)
		split, whole := cli.Pipeline(), cli.Pipeline()
		split.Set("shard", hdr, body)
		whole.Set("shard", joined)
		wantExt := 0
		if n >= zeroCopyMin {
			wantExt = n
		}
		if got := split.tape().extBytes; got != wantExt {
			t.Fatalf("body %d: %d bytes referenced zero-copy, want %d", n, got, wantExt)
		}
		var got, want bytes.Buffer
		for replay := 0; replay < 2; replay++ {
			got.Reset()
			want.Reset()
			if err := split.tape().writeTo(&got); err != nil {
				t.Fatal(err)
			}
			if err := whole.tape().writeTo(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("body %d, send %d: header+body tape differs from the joined SET", n, replay)
			}
		}
		whole.reset()
		if _, err := split.Run(); err != nil {
			t.Fatal(err)
		}
		if v, ok, err := srv.Store().Get("shard"); err != nil || !ok || !bytes.Equal(v, joined) {
			t.Fatalf("body %d: stored value differs from header+body (ok=%v err=%v)", n, ok, err)
		}
	}
}

// TestWriteToReusesIovecs sends a tape of several zero-copy segments
// twice: net.Buffers.WriteTo consumes the slice it is handed, and the
// tape must keep its own iovec array, so a resend allocates nothing.
func TestWriteToReusesIovecs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	e := getEnc()
	defer putEnc(e)
	payload := make([]byte, 4*zeroCopyMin)
	for i := 0; i < 4; i++ {
		e.beginCommand(3)
		e.argString("SET")
		e.argString(fmt.Sprint("k", i))
		e.argBytes(payload)
	}
	if err := e.writeTo(io.Discard); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = e.writeTo(io.Discard) }); allocs != 0 {
		t.Fatalf("resending a tape allocates %.1f times", allocs)
	}
}
