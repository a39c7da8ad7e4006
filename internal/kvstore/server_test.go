package kvstore

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"memfss/internal/erasure"
)

// startServer launches a server on a random port and returns a connected
// client; both are cleaned up with the test.
func startServer(t *testing.T, maxMem int64, password string) (*Server, *Client) {
	t.Helper()
	srv := NewServer(NewStore(maxMem), password)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli := Dial(addr, DialOptions{Password: password, Timeout: 5 * time.Second})
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

func TestServerBasicOps(t *testing.T) {
	_, cli := startServer(t, 0, "")
	if err := cli.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := cli.Set("k", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := cli.Get("k")
	if err != nil || !ok || string(v) != "hello" {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}
	if _, ok, _ := cli.Get("missing"); ok {
		t.Fatal("missing key present")
	}
	n, err := cli.Del("k", "missing")
	if err != nil || n != 1 {
		t.Fatalf("Del = %d %v", n, err)
	}
}

func TestServerBinaryPayload(t *testing.T) {
	_, cli := startServer(t, 0, "")
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	payload = append(payload, []byte("\r\n$5\r\n")...)
	if err := cli.Set("bin", payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := cli.Get("bin")
	if err != nil || !ok || !bytes.Equal(got, payload) {
		t.Fatal("binary payload corrupted on the wire")
	}
}

func TestServerRangeOps(t *testing.T) {
	_, cli := startServer(t, 0, "")
	if err := cli.SetRange("k", 4, []byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := cli.SetRange("k", 0, []byte("heyo")); err != nil {
		t.Fatal(err)
	}
	v := make([]byte, 5)
	n, ok, err := cli.GetRangeInto("k", 4, 5, v)
	if err != nil || !ok || string(v[:n]) != "world" {
		t.Fatalf("GetRangeInto = %q %v %v", v[:n], ok, err)
	}
}

func TestServerSetsAndCounters(t *testing.T) {
	_, cli := startServer(t, 0, "")
	if n, err := cli.SAdd("dir:/", "a", "b", "a"); err != nil || n != 2 {
		t.Fatalf("SAdd = %d %v", n, err)
	}
	members, err := cli.SMembers("dir:/")
	if err != nil || strings.Join(members, ",") != "a,b" {
		t.Fatalf("SMembers = %v %v", members, err)
	}
	if n, err := cli.SCard("dir:/"); err != nil || n != 2 {
		t.Fatalf("SCard = %d %v", n, err)
	}
	if n, err := cli.SRem("dir:/", "a"); err != nil || n != 1 {
		t.Fatalf("SRem = %d %v", n, err)
	}
	if n, err := cli.Incr("next-id"); err != nil || n != 1 {
		t.Fatalf("Incr = %d %v", n, err)
	}
	ok, err := cli.SetNX("lock", []byte("1"))
	if err != nil || !ok {
		t.Fatalf("SetNX = %v %v", ok, err)
	}
	if ok, _ := cli.SetNX("lock", []byte("2")); ok {
		t.Fatal("SetNX stored twice")
	}
	if v, ok, err := cli.Get("lock"); err != nil || !ok || string(v) != "1" {
		t.Fatalf("Get after SetNX = %q %v %v", v, ok, err)
	}
}

func TestServerKeysAndFlush(t *testing.T) {
	_, cli := startServer(t, 0, "")
	cli.Set("data:1", erasure.WrapShard(1, 1, []byte("x")))
	cli.Set("data:2", erasure.WrapShard(1, 1, []byte("x")))
	cli.Set("meta:1", []byte("x")) // no stripe header: not listed
	keys, next, err := cli.Scan(0, 10)
	sort.Strings(keys)
	if err != nil || next != 0 || !slices.Equal(keys, []string{"data:1", "data:2"}) {
		t.Fatalf("Scan = %v %d %v", keys, next, err)
	}
	if err := cli.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if keys, next, err = cli.Scan(0, 10); err != nil || next != 0 || len(keys) != 0 {
		t.Fatalf("FlushAll left %v (next %d, %v)", keys, next, err)
	}
}

func TestServerAuth(t *testing.T) {
	srv, cli := startServer(t, 0, "secret")
	if err := cli.Set("k", []byte("v")); err != nil {
		t.Fatalf("authed client rejected: %v", err)
	}

	// A client without the password must be refused everything but PING.
	intruder := Dial(srv.ln.Addr().String(), DialOptions{Timeout: 2 * time.Second})
	defer intruder.Close()
	if err := intruder.Ping(); err != nil {
		t.Fatalf("unauthenticated PING should pass: %v", err)
	}
	if err := intruder.Set("k", []byte("stolen")); err == nil || !strings.Contains(err.Error(), "NOAUTH") {
		t.Fatalf("unauthenticated SET: %v", err)
	}
	if _, ok, err := intruder.Get("k"); ok || err == nil {
		t.Fatalf("unauthenticated GET leaked data: %v %v", ok, err)
	}

	// Wrong password is rejected at connection setup.
	wrong := Dial(srv.ln.Addr().String(), DialOptions{Password: "nope", Timeout: 2 * time.Second})
	defer wrong.Close()
	if err := wrong.Ping(); err == nil || !strings.Contains(err.Error(), "WRONGPASS") {
		t.Fatalf("wrong password: %v", err)
	}
}

func TestServerOOMOverWire(t *testing.T) {
	_, cli := startServer(t, 300, "")
	if err := cli.Set("k", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	err := cli.Set("k2", make([]byte, 400))
	if err == nil || !strings.Contains(err.Error(), "OOM") {
		t.Fatalf("expected OOM over wire, got %v", err)
	}
}

func TestServerMemCapAndInfo(t *testing.T) {
	_, cli := startServer(t, 0, "")
	if err := cli.SetMemCap(10_000); err != nil {
		t.Fatal(err)
	}
	cli.Set("k", make([]byte, 9_500))
	st, err := cli.Info()
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxMemory != 10_000 || st.NumKeys != 1 || !st.Pressure {
		t.Fatalf("Info = %+v", st)
	}
}

func TestServerWrongTypeOverWire(t *testing.T) {
	_, cli := startServer(t, 0, "")
	cli.SAdd("s", "m")
	_, _, err := cli.Get("s")
	if err == nil || !strings.Contains(err.Error(), "WRONGTYPE") {
		t.Fatalf("expected WRONGTYPE, got %v", err)
	}
}

func TestServerUnknownCommand(t *testing.T) {
	_, cli := startServer(t, 0, "")
	reply, err := cli.do([]byte("BOGUS"))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Err() == nil {
		t.Fatal("unknown command accepted")
	}
}

func TestServerConcurrentClients(t *testing.T) {
	srv, _ := startServer(t, 0, "pw")
	addr := srv.ln.Addr().String()
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cli := Dial(addr, DialOptions{Password: "pw", PoolSize: 2, Timeout: 5 * time.Second})
			defer cli.Close()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i)
				if err := cli.Set(key, []byte(key)); err != nil {
					errCh <- err
					return
				}
				v, ok, err := cli.Get(key)
				if err != nil || !ok || string(v) != key {
					errCh <- fmt.Errorf("get %s: %q %v %v", key, v, ok, err)
					return
				}
				if _, err := cli.Incr("shared"); err != nil {
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
	st := srv.Store().Stats()
	if st.NumKeys != 801 { // 800 per-goroutine keys + shared counter
		t.Fatalf("NumKeys = %d, want 801", st.NumKeys)
	}
}

// TestServerSurvivesHostileRanges sends range commands whose offset+length
// overflows, or whose end lies past the largest legal value, and malformed
// VSETs, as raw frames (the client's own checks would hide some of them).
// Each must get a reply, and the server must still answer a PING on a
// fresh connection.
func TestServerSurvivesHostileRanges(t *testing.T) {
	srv, cli := startServer(t, 0, "")
	if err := cli.Set("k", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.SAdd("set", "m"); err != nil {
		t.Fatal(err)
	}
	addr := srv.ln.Addr().String()
	roundTrip := func(frame []byte) (*Reply, error) {
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Write(frame); err != nil {
			return nil, err
		}
		return ReadReply(bufio.NewReader(conn))
	}
	const (
		tooLarge  = "ERR string exceeds maximum allowed size"
		vsetArity = "ERR wrong number of arguments for VSET"
		notInt    = "ERR value is not an integer"
		wrongType = "WRONGTYPE operation against a key holding the wrong kind of value"
	)
	for _, tc := range []struct {
		name string
		args []string
		want string // error text, or the bulk payload when it has no ERR prefix
	}{
		{"setrange offset+len overflows", []string{"SETRANGE", "k", "9223372036854775805", "abcdef"}, tooLarge},
		{"setrange far past the largest value", []string{"SETRANGE", "k2", "4611686018427387904", "x"}, tooLarge},
		{"setrange one byte past the largest value", []string{"SETRANGE", "k3", fmt.Sprint(maxBulkLen), "x"}, tooLarge},
		{"getrange offset+length overflows", []string{"GETRANGE", "k", "1", "9223372036854775807"}, "ello"},
		{"getrange both at the maximum", []string{"GETRANGE", "k", "9223372036854775807", "9223372036854775807"}, ""},
		{"vset without id and value", []string{"VSET", "v"}, vsetArity},
		{"vset with an extra argument", []string{"VSET", "v", "1", "0", "x", "y"}, vsetArity},
		{"vset non-integer id", []string{"VSET", "v", "one", "0", "x"}, notInt},
		{"vset non-integer offset", []string{"VSET", "v", "1", "zero", "x"}, notInt},
		{"vset negative offset", []string{"VSET", "v", "1", "-1", "x"}, "ERR kvstore: negative offset -1"},
		{"vset offset+len overflows", []string{"VSET", "v", "1", "9223372036854775805", "abcdef"}, tooLarge},
		{"vset one byte past the largest value", []string{"VSET", "v", "1", fmt.Sprint(maxBulkLen - erasure.HeaderSize), "x"}, tooLarge},
		{"vset range into a set", []string{"VSET", "set", "1", "0", "x"}, wrongType},
		{"vset whole over a set", []string{"VSET", "set", "1", "x"}, wrongType},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := make([][]byte, len(tc.args))
			for i, a := range tc.args {
				args[i] = []byte(a)
			}
			r, err := roundTrip(command(args...))
			switch {
			case err != nil:
				t.Fatalf("no reply: %v", err)
			case strings.HasPrefix(tc.want, "ERR") || strings.HasPrefix(tc.want, "WRONGTYPE"):
				if r.Kind != '-' || r.Str != tc.want {
					t.Fatalf("reply %+v, want error %q", r, tc.want)
				}
			case r.Kind != '$' || string(r.Bulk) != tc.want:
				t.Fatalf("reply %+v, want bulk %q", r, tc.want)
			}
			if r, err := roundTrip(command([]byte("PING"))); err != nil || r.Str != "PONG" {
				t.Fatalf("server down after the frame: %+v %v", r, err)
			}
		})
	}
	for _, key := range []string{"k2", "v"} {
		if _, ok, _ := srv.Store().Get(key); ok {
			t.Fatalf("a refused write created %s", key)
		}
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, cli := startServer(t, 0, "")
	if err := cli.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cli.Ping(); err == nil {
		t.Fatal("ping succeeded after server close")
	}
}

func TestClientClosed(t *testing.T) {
	_, cli := startServer(t, 0, "")
	cli.Close()
	if err := cli.Ping(); err != ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func BenchmarkWireSetGet64KiB(b *testing.B) {
	srv := NewServer(NewStore(0), "")
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli := Dial(addr, DialOptions{})
	defer cli.Close()
	val := make([]byte, 64<<10)
	b.SetBytes(2 * 64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cli.Set("k", val); err != nil {
			b.Fatal(err)
		}
		if _, ok, err := cli.Get("k"); !ok || err != nil {
			b.Fatal(err)
		}
	}
}
