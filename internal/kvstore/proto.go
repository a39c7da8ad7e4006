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
//
// Two verbs know the erasure.HeaderSize-byte (generation, write ID) header
// every stripe value starts with. VSET key id [off] value writes a stripe
// payload and the store stamps the header. DELVAL key value deletes key
// only if it holds exactly value — or, when key holds a stripe value and
// value is exactly erasure.HeaderSize bytes, only if its header is value.
// The header form rests on one invariant: core writes exactly one payload
// per (generation, write ID) per key, so a header still in place names
// the same bytes, and any write since has stamped another. SCAN cursor
// count, the one listing verb, pages through the stripe values' keys
// (Store.Scan) and replies the next cursor followed by the keys.

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
	buf, err := readPayload(br, n)
	return buf, false, err
}

// readPayload reads the n-byte payload of a bulk whose header is consumed,
// and its CRLF, into an exact-size allocation the caller owns.
func readPayload(br *bufio.Reader, n int64) ([]byte, error) {
	return fillPayload(br, make([]byte, n))
}

// fillPayload is readPayload into buf, whose every byte io.ReadFull
// overwrites: buf may be a recycled buffer still holding another value's
// bytes. On error it returns nil, so a failed read leaves nothing to store.
func fillPayload(br *bufio.Reader, buf []byte) ([]byte, error) {
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, err
	}
	if err := discardCRLF(br); err != nil {
		return nil, err
	}
	return buf, nil
}

// readBulkInto decodes a bulk payload directly into hdr and dst — the
// zero-copy read path: the first len(hdr) bytes land in hdr (nil for
// none), the rest in dst. It returns the payload length (which may be
// shorter than hdr+dst for a truncated range read). A payload larger than
// hdr+dst means the server answered more than was asked for; that is a
// protocol error and the connection is treated as broken.
func readBulkInto(br *bufio.Reader, hdr, dst []byte) (n int, isNil bool, err error) {
	ln, isNil, err := readBulkHeader(br)
	if err != nil || isNil {
		return 0, isNil, err
	}
	if ln > int64(len(hdr)+len(dst)) {
		return 0, false, fmt.Errorf("%w: bulk length %d exceeds destination %d", errProtocol, ln, len(hdr)+len(dst))
	}
	h := min(int(ln), len(hdr))
	if _, err := io.ReadFull(br, hdr[:h]); err != nil {
		return 0, false, err
	}
	if _, err := io.ReadFull(br, dst[:int(ln)-h]); err != nil {
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
// payload into hdr and dst as readBulkInto does.
func readBulkReplyInto(br *bufio.Reader, hdr, dst []byte) (n int, ok bool, errMsg string, err error) {
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
	n, isNil, err := readBulkInto(br, hdr, dst)
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

// verbs is the command table, one entry per verb: its interned name, so
// hot paths resolve a verb from its wire bytes without allocating (a
// map[string] lookup on a []byte conversion does not copy), and the
// range of argument counts the server takes after it. FLUSHALL, INFO and
// PING ignore theirs. Unknown or lowercase verbs fall back to an
// allocating ToUpper.
var verbs = map[string]struct {
	name     string
	min, max int
}{
	"SET": {"SET", 2, 2}, "SETNX": {"SETNX", 2, 2}, "GET": {"GET", 1, 1},
	"GETRANGE": {"GETRANGE", 3, 3}, "SETRANGE": {"SETRANGE", 3, 3},
	"DEL": {"DEL", 1, maxArrayLen}, "MGET": {"MGET", 1, maxArrayLen},
	"VSET": {"VSET", 3, 4}, "SADD": {"SADD", 2, maxArrayLen},
	"SREM": {"SREM", 2, maxArrayLen}, "SMEMBERS": {"SMEMBERS", 1, 1},
	"SCARD": {"SCARD", 1, 1}, "INCR": {"INCR", 1, 1}, "SCAN": {"SCAN", 2, 2},
	"DELVAL": {"DELVAL", 2, 2}, "MEMCAP": {"MEMCAP", 1, 1},
	"FLUSHALL": {"FLUSHALL", 0, maxArrayLen}, "INFO": {"INFO", 0, maxArrayLen},
	"AUTH": {"AUTH", 1, 1}, "PING": {"PING", 0, maxArrayLen},
}

func verbOf(b []byte) string {
	if v, ok := verbs[string(b)]; ok {
		return v.name
	}
	return strings.ToUpper(string(b))
}
