package kvstore

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"

	"memfss/internal/erasure"
)

// wire returns the bytes the shipping encoder puts on a connection for
// what build queues on it.
func wire(build func(e *wireEnc)) []byte {
	var e wireEnc
	build(&e)
	var buf bytes.Buffer
	if err := e.writeTo(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// command frames args the way the client does (roundTrip, Pipeline).
func command(args ...[]byte) []byte {
	return wire(func(e *wireEnc) {
		e.beginCommand(len(args))
		for _, a := range args {
			e.argBytes(a)
		}
	})
}

// arrayReply frames items the way the server's replyWriter does; a nil
// item is the nil bulk.
func arrayReply(e *wireEnc, items [][]byte) {
	e.arrayHeader(len(items))
	for _, it := range items {
		if it == nil {
			e.nilBulk()
		} else {
			e.argBytes(it)
		}
	}
}

// readCommand decodes one command from in with the server's decoder. A
// kept value whose header the decoder split off is put back together, so
// the last argument is the value as sent.
func readCommand(in []byte) ([][]byte, error) {
	cr := &cmdReader{br: bufio.NewReader(bytes.NewReader(in))}
	_, args, err := cr.next()
	if err == nil && cr.kept.hdr != nil {
		args[len(args)-1] = append(cr.kept.hdr.b[:], cr.kept.val...)
	}
	return args, err
}

// allocated reports the heap bytes fn allocated (the fuzz worker runs one
// input at a time, so the process-wide counter is fn's).
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeBudget bounds what decoding one reply from in may allocate: the
// item slice of the largest legal array, one bulk of the largest legal
// declared length (allocated before its bytes are known to exist), the
// bytes actually present, and bufio's own buffer.
func decodeBudget(in []byte) uint64 {
	return 24*maxArrayLen + maxBulkLen + 2*uint64(len(in)) + 1<<20
}

// commandBudget is decodeBudget for the server's cmdReader: it keeps an
// offset pair beside each argument's slice header, and its one argument
// buffer grows by doubling — the buffers that bytes really arrived in sum
// to under 4x the input, and the last growth (for a declared bulk that may
// not be there) adds at most as much again or the largest legal bulk. A
// SET value's own exact-size buffer is the last argument, so it takes the
// place of that last growth.
func commandBudget(in []byte) uint64 {
	return (24+16)*maxArrayLen + maxBulkLen + 8*uint64(len(in)) + 1<<20
}

// malformedFrames seeds both fuzz targets with the frames the decoder
// must refuse: over-bound lengths, truncated payloads, bare LF, overflow.
var malformedFrames = []string{
	"", "\r\n", "*", "$", "+OK\n", "*1\r\n$3\r\nab", "$3\r\nabcXY", "*2\r\n$1\r\na\r\n$-1\r\n",
	"$67108865\r\n", "*1048577\r\n", "*-1\r\n", "$-2\r\n", ":9223372036854775808\r\n",
	"*1\r\n:1\r\n", "$1x\r\n", "?what\r\n",
	// The largest legal array of the largest legal bulk, none of it there:
	// the frame that comes closest to the allocation budgets.
	"*1048576\r\n$67108864\r\n",
}

// FuzzReadCommand feeds arbitrary bytes to the server's command decoder
// (cmdReader.next, what serveConn parses every connection with). It must
// never panic, must fail only with a protocol error or an I/O error for a
// short frame, must stay inside commandBudget whatever lengths the frame
// declares, and whatever it accepts must re-encode — with the client's
// encoder — to a frame that decodes to the same arguments.
func FuzzReadCommand(f *testing.F) {
	f.Add(command([]byte("PING")))
	f.Add(command([]byte("SET"), []byte("key"), []byte("val\r\nwith crlf")))
	f.Add(command([]byte("GETRANGE"), []byte("data:7:0/s3"), []byte("0"), []byte("262162")))
	f.Add(command([]byte("SET"), []byte("k"), []byte{}))
	f.Add(command([]byte("SET"), []byte("data:7#2"), erasure.WrapShard(3, 42, []byte("shard payload"))))
	f.Add(command([]byte("SETNX"), []byte("data:7"), erasure.WrapShard(1, 7, nil)))
	f.Add(command([]byte("SET"), []byte("data:7"), erasure.WrapShard(1, 7, nil)[:erasure.HeaderSize-1]))
	f.Add(command([]byte("VSET"), []byte("data:7#0"), []byte("-42"), []byte("whole value")))
	f.Add(command([]byte("VSET"), []byte("data:7#0"), []byte("42"), []byte("4096"), []byte("range")))
	for _, s := range malformedFrames {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var args [][]byte
		var err error
		if n := allocated(func() { args, err = readCommand(in) }); n > commandBudget(in) {
			t.Fatalf("decoding a %d-byte frame allocated %d bytes", len(in), n)
		}
		if err != nil {
			if !errors.Is(err, errProtocol) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("cmdReader.next error %v is neither a protocol error nor a short frame", err)
			}
			return
		}
		total := 0
		for _, a := range args {
			if a == nil {
				t.Fatal("accepted a nil bulk inside a command")
			}
			total += len(a)
		}
		if len(args) == 0 || total > len(in) {
			t.Fatalf("%d args of %d bytes out of a %d-byte frame", len(args), total, len(in))
		}
		again, err := readCommand(command(args...))
		if err != nil || !reflect.DeepEqual(again, args) {
			t.Fatalf("re-encoded command decodes to %q (err %v), want %q", again, err, args)
		}
	})
}

// FuzzReadReply feeds arbitrary bytes to the client-side reply decoders:
// the generic ReadReply and the hot-path status / bulk decoders. None may
// panic or outgrow decodeBudget; an accepted reply must survive a
// re-encode; and readBulkReplyInto must agree with readBulkReplyAlloc
// while writing nothing past len(dst).
func FuzzReadReply(f *testing.F) {
	for _, w := range []func(e *wireEnc){
		func(e *wireEnc) { e.simple("OK") },
		func(e *wireEnc) { e.errorReply("ERR boom") },
		func(e *wireEnc) { e.errorReply("OOM store over its memory cap") },
		func(e *wireEnc) { e.intReply(-42) },
		func(e *wireEnc) { e.argBytes([]byte("data")) },
		func(e *wireEnc) { e.nilBulk() },
		func(e *wireEnc) { e.argBytes([]byte{}) },
		func(e *wireEnc) { e.argBytes(erasure.WrapShard(2, 9, []byte("payload"))) },
		func(e *wireEnc) { arrayReply(e, [][]byte{[]byte("a"), nil, []byte("b")}) },
		func(e *wireEnc) { arrayReply(e, nil) },
	} {
		f.Add(wire(w), uint16(4))
	}
	for _, s := range malformedFrames {
		f.Add([]byte(s), uint16(2))
	}
	f.Fuzz(func(t *testing.T, in []byte, dstLen uint16) {
		reader := func() *bufio.Reader { return bufio.NewReader(bytes.NewReader(in)) }

		var r *Reply
		var err error
		if n := allocated(func() { r, err = ReadReply(reader()) }); n > decodeBudget(in) {
			t.Fatalf("decoding a %d-byte reply allocated %d bytes", len(in), n)
		}
		if err == nil {
			again, err := ReadReply(bufio.NewReader(bytes.NewReader(wire(func(e *wireEnc) {
				switch {
				case r.Kind == '+':
					e.simple(r.Str)
				case r.Kind == '-':
					e.errorReply(r.Str)
				case r.Kind == ':':
					e.intReply(r.Int)
				case r.Kind == '$' && r.Nil:
					e.nilBulk()
				case r.Kind == '$':
					e.argBytes(r.Bulk)
				case r.Kind == '*':
					arrayReply(e, r.Array)
				default:
					t.Fatalf("accepted reply of kind %q", r.Kind)
				}
			}))))
			if err != nil || !reflect.DeepEqual(again, r) {
				t.Fatalf("re-encoded reply decodes to %+v (err %v), want %+v", again, err, r)
			}
		}

		_, _ = readStatusReply(reader())

		// dst sits inside a larger array: bytes past len(dst) are canaries.
		const canary = 0xC5
		backing := bytes.Repeat([]byte{canary}, int(dstLen)+64)
		dst := backing[:dstLen]
		n, ok, msg, err := readBulkReplyInto(reader(), nil, dst)
		for i, b := range backing[dstLen:] {
			if b != canary {
				t.Fatalf("readBulkReplyInto wrote %d bytes past a %d-byte destination", i+1, dstLen)
			}
		}
		if err != nil {
			return
		}
		if n > len(dst) || (!ok && n != 0) {
			t.Fatalf("readBulkReplyInto reports %d bytes (ok=%v) into a %d-byte destination", n, ok, dstLen)
		}
		full, okAlloc, msgAlloc, err := readBulkReplyAlloc(reader())
		if err != nil || ok != okAlloc || msg != msgAlloc || !bytes.Equal(full, dst[:n]) {
			t.Fatalf("readBulkReplyInto decoded (%q, ok=%v, msg=%q), readBulkReplyAlloc (%q, ok=%v, msg=%q, err %v)",
				dst[:n], ok, msg, full, okAlloc, msgAlloc, err)
		}
	})
}
