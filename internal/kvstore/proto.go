package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The wire protocol is a RESP-like framing (the protocol family Redis
// speaks, re-implemented from scratch):
//
//	command:  *<nargs>\r\n then nargs bulk strings
//	bulk:     $<len>\r\n<len bytes>\r\n   ($-1\r\n is the nil bulk)
//	replies:  +simple\r\n  -ERR message\r\n  :integer\r\n  bulk  or
//	          *<n>\r\n followed by n bulk strings
//
// Binary-safe bulk strings carry stripe data unmodified. Array *replies*
// may contain nil bulks ($-1) — MGET reports missing keys that way —
// while nil bulks inside commands remain a protocol error.
//
// The protocol is pipelinable: a client may write any number of commands
// before reading the replies, which arrive in order. Both sides encode
// with wireEnc (wire.go), which only buffers until writeTo: the client
// batches a pipeline into one vectored write and the server a burst of
// replies into one flush. This file holds the decoders, except the
// server's command decoder (cmdReader in server.go).

// maxBulkLen bounds a single bulk string (64 MiB) to keep a malformed or
// hostile peer from forcing huge allocations.
const maxBulkLen = 64 << 20

// maxArrayLen bounds command/reply arity.
const maxArrayLen = 1 << 20

// errProtocol wraps malformed-frame errors.
var errProtocol = errors.New("kvstore: protocol error")

// Reply is a decoded protocol reply. Exactly one interpretation applies,
// indicated by Kind.
type Reply struct {
	Kind  byte     // '+', '-', ':', '$', '*'
	Str   string   // simple string or error text
	Int   int64    // integer reply
	Bulk  []byte   // bulk payload; nil for the nil bulk
	Nil   bool     // true for $-1
	Array [][]byte // array of bulk strings; a nil element is a nil bulk
}

// Err returns the reply's error, if it is an error reply. Store-full
// rejections (the server's "OOM ..." reply) decode as ErrNoSpace-wrapped
// errors so the classification survives the wire: callers can fail fast
// on a full store instead of treating it like any opaque failure.
func (r *Reply) Err() error {
	if r.Kind != '-' {
		return nil
	}
	if strings.HasPrefix(r.Str, "OOM") {
		return fmt.Errorf("%w: %s", ErrNoSpace, r.Str)
	}
	return errors.New(r.Str)
}

// readLine returns one protocol line without its CRLF. The returned slice
// is a view into the reader's internal buffer — valid only until the next
// read — so nothing is allocated and nothing can leak on error paths:
// callers must parse (or copy) before touching the reader again. A lone
// '\n' or a line overflowing the read buffer is a protocol error up front.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			return nil, fmt.Errorf("%w: line too long", errProtocol)
		}
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, fmt.Errorf("%w: line not CRLF-terminated", errProtocol)
	}
	return line[:len(line)-2], nil
}

// parseInt parses a decimal integer directly from the byte slice — no
// string conversion, no allocation (this runs once per protocol line).
func parseInt(b []byte) (int64, error) {
	i := 0
	neg := false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg = b[0] == '-'
		i = 1
	}
	if i == len(b) {
		return 0, fmt.Errorf("%w: bad integer %q", errProtocol, b)
	}
	var n int64
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			return 0, fmt.Errorf("%w: bad integer %q", errProtocol, b)
		}
		if n > (1<<63-1-int64(d))/10 {
			return 0, fmt.Errorf("%w: integer %q overflows", errProtocol, b)
		}
		n = n*10 + int64(d)
	}
	if neg {
		n = -n
	}
	return n, nil
}

// readBulkHeader decodes a $<len> header, returning the payload length or
// isNil for the nil bulk.
func readBulkHeader(br *bufio.Reader) (n int64, isNil bool, err error) {
	line, err := readLine(br)
	if err != nil {
		return 0, false, err
	}
	if len(line) == 0 || line[0] != '$' {
		return 0, false, fmt.Errorf("%w: expected bulk, got %q", errProtocol, line)
	}
	n, err = parseInt(line[1:])
	if err != nil {
		return 0, false, err
	}
	if n == -1 {
		return 0, true, nil
	}
	if n < 0 || n > maxBulkLen {
		return 0, false, fmt.Errorf("%w: bulk length %d out of range", errProtocol, n)
	}
	return n, false, nil
}

// discardCRLF consumes the CRLF trailing a bulk payload without buffering
// it into the payload allocation.
func discardCRLF(br *bufio.Reader) error {
	b, err := br.Peek(2)
	if err != nil {
		return err
	}
	if b[0] != '\r' || b[1] != '\n' {
		return fmt.Errorf("%w: bulk not CRLF-terminated", errProtocol)
	}
	_, _ = br.Discard(2)
	return nil
}

// readBulk decodes a bulk string into an exact-size caller-owned
// allocation (no +2 CRLF slack — the CRLF is discarded from the reader's
// own buffer). Generic-path callers keep the result indefinitely, so it
// is never pooled.
func readBulk(br *bufio.Reader) ([]byte, bool, error) {
	n, isNil, err := readBulkHeader(br)
	if err != nil || isNil {
		return nil, isNil, err
	}
	buf, err := readPayload(br, n, 0)
	return buf, false, err
}

// readPayload reads the n-byte payload of a bulk whose header is consumed,
// and its CRLF, into an allocation the caller owns: room bytes, then the
// payload.
func readPayload(br *bufio.Reader, n int64, room int) ([]byte, error) {
	buf := make([]byte, int64(room)+n)
	if _, err := io.ReadFull(br, buf[room:]); err != nil {
		return nil, err
	}
	if err := discardCRLF(br); err != nil {
		return nil, err
	}
	return buf, nil
}

// readBulkInto decodes a bulk payload directly into dst — the zero-copy
// read path. It returns the payload length (which may be shorter than dst
// for a truncated range read). A payload larger than dst means the server
// answered more than was asked for; that is a protocol error and the
// connection is treated as broken.
func readBulkInto(br *bufio.Reader, dst []byte) (n int, isNil bool, err error) {
	ln, isNil, err := readBulkHeader(br)
	if err != nil || isNil {
		return 0, isNil, err
	}
	if ln > int64(len(dst)) {
		return 0, false, fmt.Errorf("%w: bulk length %d exceeds destination %d", errProtocol, ln, len(dst))
	}
	if _, err := io.ReadFull(br, dst[:ln]); err != nil {
		return 0, false, err
	}
	if err := discardCRLF(br); err != nil {
		return 0, false, err
	}
	return int(ln), false, nil
}

// replyError converts an error-reply message to the error Reply.Err would
// produce, preserving the ErrNoSpace classification of OOM rejections.
func replyError(msg string) error {
	if strings.HasPrefix(msg, "OOM") {
		return fmt.Errorf("%w: %s", ErrNoSpace, msg)
	}
	return errors.New(msg)
}

// The read*Reply decoders below serve the specialized client hot paths.
// They separate store-level error replies (errMsg != "", the command ran
// and the store said no — not retryable) from transport/protocol failures
// (err != nil, the connection is broken — retryable), so the retry loop
// never replays a command the store already rejected.

// readStatusReply consumes one +simple / -error reply.
func readStatusReply(br *bufio.Reader) (errMsg string, err error) {
	line, err := readLine(br)
	if err != nil {
		return "", err
	}
	if len(line) == 0 {
		return "", fmt.Errorf("%w: empty reply line", errProtocol)
	}
	switch line[0] {
	case '+':
		return "", nil
	case '-':
		return string(line[1:]), nil
	default:
		return "", fmt.Errorf("%w: unexpected status reply %q", errProtocol, line)
	}
}

// readBulkReplyInto consumes one bulk (or -error) reply, decoding the
// payload into dst.
func readBulkReplyInto(br *bufio.Reader, dst []byte) (n int, ok bool, errMsg string, err error) {
	prefix, err := br.Peek(1)
	if err != nil {
		return 0, false, "", err
	}
	if prefix[0] == '-' {
		line, err := readLine(br)
		if err != nil {
			return 0, false, "", err
		}
		return 0, false, string(line[1:]), nil
	}
	n, isNil, err := readBulkInto(br, dst)
	if err != nil {
		return 0, false, "", err
	}
	return n, !isNil, "", nil
}

// readBulkReplyAlloc consumes one bulk (or -error) reply into a fresh
// caller-owned allocation.
func readBulkReplyAlloc(br *bufio.Reader) (b []byte, ok bool, errMsg string, err error) {
	prefix, err := br.Peek(1)
	if err != nil {
		return nil, false, "", err
	}
	if prefix[0] == '-' {
		line, err := readLine(br)
		if err != nil {
			return nil, false, "", err
		}
		return nil, false, string(line[1:]), nil
	}
	b, isNil, err := readBulk(br)
	if err != nil {
		return nil, false, "", err
	}
	return b, !isNil, "", nil
}

// ReadReply reads one server reply of any kind.
func ReadReply(br *bufio.Reader) (*Reply, error) {
	r := new(Reply)
	if err := readReplyInto(br, r); err != nil {
		return nil, err
	}
	return r, nil
}

// readReplyInto decodes one reply into a caller-provided Reply — the form
// pipeline bursts use so N replies cost one arena allocation, not N.
func readReplyInto(br *bufio.Reader, r *Reply) error {
	prefix, err := br.Peek(1)
	if err != nil {
		return err
	}
	switch prefix[0] {
	case '+', '-':
		line, err := readLine(br)
		if err != nil {
			return err
		}
		r.Kind = line[0]
		r.Str = string(line[1:])
		return nil
	case ':':
		line, err := readLine(br)
		if err != nil {
			return err
		}
		n, err := parseInt(line[1:])
		if err != nil {
			return err
		}
		r.Kind = ':'
		r.Int = n
		return nil
	case '$':
		b, isNil, err := readBulk(br)
		if err != nil {
			return err
		}
		r.Kind = '$'
		r.Bulk = b
		r.Nil = isNil
		return nil
	case '*':
		line, err := readLine(br)
		if err != nil {
			return err
		}
		n, err := parseInt(line[1:])
		if err != nil {
			return err
		}
		if n < 0 || n > maxArrayLen {
			return fmt.Errorf("%w: array length %d out of range", errProtocol, n)
		}
		items := make([][]byte, n)
		for i := range items {
			b, isNil, err := readBulk(br)
			if err != nil {
				return err
			}
			if isNil {
				items[i] = nil // missing key in an MGET reply
				continue
			}
			items[i] = b
		}
		r.Kind = '*'
		r.Array = items
		return nil
	default:
		return fmt.Errorf("%w: unknown reply prefix %q", errProtocol, prefix[0])
	}
}

// verbNames maps the canonical command verbs to interned strings, so hot
// paths resolve a verb from its wire bytes without allocating (a direct
// map[string] lookup on a []byte conversion does not copy). Unknown or
// lowercase verbs fall back to an allocating ToUpper.
var verbNames = map[string]string{
	"SET": "SET", "SETNX": "SETNX", "GET": "GET", "GETRANGE": "GETRANGE",
	"SETRANGE": "SETRANGE", "DEL": "DEL", "MGET": "MGET",
	"VSET": "VSET", "SADD": "SADD", "SREM": "SREM",
	"SMEMBERS": "SMEMBERS", "SCARD": "SCARD", "INCR": "INCR",
	"KEYS": "KEYS", "KEYSN": "KEYSN", "DELVAL": "DELVAL",
	"FLUSHALL": "FLUSHALL", "MEMCAP": "MEMCAP", "INFO": "INFO",
	"AUTH": "AUTH", "PING": "PING",
}

func verbOf(b []byte) string {
	if v, ok := verbNames[string(b)]; ok {
		return v
	}
	return strings.ToUpper(string(b))
}
