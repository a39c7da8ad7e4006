package kvstore

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestCommandRoundTrip(t *testing.T) {
	args, err := readCommand(command([]byte("SET"), []byte("key"), []byte("val\r\nwith crlf")))
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 3 || string(args[0]) != "SET" || string(args[2]) != "val\r\nwith crlf" {
		t.Fatalf("round trip lost data: %q", args)
	}
}

// Property: any command of non-nil bulks survives the wire.
func TestCommandRoundTripProperty(t *testing.T) {
	f := func(parts [][]byte) bool {
		if len(parts) == 0 {
			return true
		}
		got, err := readCommand(command(parts...))
		if err != nil || len(got) != len(parts) {
			return false
		}
		for i := range parts {
			if !bytes.Equal(got[i], parts[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReplyKinds(t *testing.T) {
	br := bufio.NewReader(bytes.NewReader(wire(func(e *wireEnc) {
		e.simple("OK")
		e.errorReply("ERR boom")
		e.intReply(-42)
		e.argBytes([]byte("data"))
		e.nilBulk()
		arrayReply(e, [][]byte{[]byte("a"), []byte("b")})
	})))

	r, err := ReadReply(br)
	if err != nil || r.Kind != '+' || r.Str != "OK" {
		t.Fatalf("simple: %+v %v", r, err)
	}
	r, err = ReadReply(br)
	if err != nil || r.Kind != '-' || r.Err() == nil || r.Err().Error() != "ERR boom" {
		t.Fatalf("error: %+v %v", r, err)
	}
	r, err = ReadReply(br)
	if err != nil || r.Kind != ':' || r.Int != -42 {
		t.Fatalf("int: %+v %v", r, err)
	}
	r, err = ReadReply(br)
	if err != nil || r.Kind != '$' || string(r.Bulk) != "data" || r.Nil {
		t.Fatalf("bulk: %+v %v", r, err)
	}
	r, err = ReadReply(br)
	if err != nil || r.Kind != '$' || !r.Nil {
		t.Fatalf("nil bulk: %+v %v", r, err)
	}
	r, err = ReadReply(br)
	if err != nil || r.Kind != '*' || len(r.Array) != 2 || string(r.Array[1]) != "b" {
		t.Fatalf("array: %+v %v", r, err)
	}
}

func TestReadCommandMalformed(t *testing.T) {
	cases := []string{
		"not a frame\r\n",
		"*0\r\n",                       // empty command
		"*-1\r\n",                      // negative arity
		"*1\r\n$-1\r\n",                // nil bulk inside command
		"*1\r\n$5\r\nab\r\n",           // short bulk
		"*1\r\n$2\r\nabXX",             // missing CRLF terminator
		"*1\r\n$99999999999999999\r\n", // absurd length
	}
	for _, c := range cases {
		_, err := readCommand([]byte(c))
		if err == nil {
			t.Errorf("frame %q accepted", c)
		}
	}
}

func TestReadCommandEOF(t *testing.T) {
	_, err := readCommand(nil)
	if err != io.EOF {
		t.Fatalf("want io.EOF on empty stream, got %v", err)
	}
}

func TestReadReplyMalformed(t *testing.T) {
	for _, c := range []string{"?\r\n", ":abc\r\n", "*2\r\n$3\r\nab\r\n"} {
		if _, err := ReadReply(bufio.NewReader(strings.NewReader(c))); err == nil {
			t.Errorf("reply %q accepted", c)
		}
	}
}

// Nil bulks inside array replies are legal: MGET marks missing keys that
// way. The elements decode as nil (distinct from a present empty value).
func TestReadReplyNilInArray(t *testing.T) {
	r, err := ReadReply(bufio.NewReader(strings.NewReader("*3\r\n$1\r\na\r\n$-1\r\n$0\r\n\r\n")))
	if err != nil || r.Kind != '*' || len(r.Array) != 3 {
		t.Fatalf("array with nil bulk: %+v %v", r, err)
	}
	if string(r.Array[0]) != "a" || r.Array[1] != nil || r.Array[2] == nil || len(r.Array[2]) != 0 {
		t.Fatalf("nil/empty distinction lost: %q", r.Array)
	}
}

// Robustness property: arbitrary byte garbage never panics the frame
// readers — they must fail with an error (or io.EOF) instead.
func TestReadersNeverPanicOnGarbage(t *testing.T) {
	f := func(junk []byte) bool {
		_, err := readCommand(junk)
		_ = err
		br2 := bufio.NewReader(bytes.NewReader(junk))
		_, err2 := ReadReply(br2)
		_ = err2
		return true // reaching here means no panic
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Round-trip property for every reply kind with arbitrary payloads.
func TestReplyRoundTripProperty(t *testing.T) {
	f := func(bulk []byte, n int64, items [][]byte) bool {
		br := bufio.NewReader(bytes.NewReader(wire(func(e *wireEnc) {
			e.intReply(n)
			e.argBytes(bulk)
			arrayReply(e, items)
		})))
		r1, err := ReadReply(br)
		if err != nil || r1.Int != n {
			return false
		}
		r2, err := ReadReply(br)
		if err != nil || !bytes.Equal(r2.Bulk, bulk) {
			return false
		}
		r3, err := ReadReply(br)
		if err != nil || len(r3.Array) != len(items) {
			return false
		}
		for i := range items {
			if !bytes.Equal(r3.Array[i], items[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
