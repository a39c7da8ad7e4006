package kvstore

import (
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
)

// wireEnc is a zero-copy wire encoder: protocol framing (array headers,
// bulk headers, CRLFs, small payloads) accumulates in one reusable header
// arena, while payloads of zeroCopyMin bytes or more are referenced as
// external segments instead of being copied. writeTo then hands the whole
// tape to the kernel as one vectored write (net.Buffers → writev on TCP),
// so a pipelined burst of stripe payloads goes out in a single syscall
// without ever being assembled into an intermediate request buffer.
//
// The tape is replayable: writeTo does not consume the segments, so a
// retry after a broken connection re-sends the identical bytes. External
// payload slices must therefore stay valid — and unmodified — until the
// encoder is reset.
type wireEnc struct {
	hdr      []byte // framing + small payloads
	segs     []encSeg
	curStart int // start of the open header segment within hdr
	extBytes int // total bytes held in external segments
	iov      net.Buffers
}

// encSeg is one segment of the output tape: a range of hdr when ext is
// nil, otherwise an external payload referenced without copying.
type encSeg struct {
	off, end int
	ext      []byte
}

// zeroCopyMin is the payload size at which copying into the header arena
// stops being cheaper than an extra iovec entry.
const zeroCopyMin = 1 << 10

// maxPooledEncBytes caps the header arena retained by pooled encoders so
// one giant burst doesn't pin megabytes inside the pool forever.
const maxPooledEncBytes = 1 << 20

func (e *wireEnc) reset() {
	e.hdr = e.hdr[:0]
	for i := range e.segs {
		e.segs[i].ext = nil
	}
	e.segs = e.segs[:0]
	e.curStart = 0
	e.extBytes = 0
}

// len reports the total encoded bytes queued (header + external).
func (e *wireEnc) len() int { return len(e.hdr) + e.extBytes }

func (e *wireEnc) crlf() { e.hdr = append(e.hdr, '\r', '\n') }

// beginCommand opens a command: the *<nargs> array header.
func (e *wireEnc) beginCommand(nargs int) {
	e.hdr = append(e.hdr, '*')
	e.hdr = strconv.AppendInt(e.hdr, int64(nargs), 10)
	e.crlf()
}

func (e *wireEnc) bulkHeader(n int) {
	e.hdr = append(e.hdr, '$')
	e.hdr = strconv.AppendInt(e.hdr, int64(n), 10)
	e.crlf()
}

// argString encodes a bulk string argument, copying (verbs and keys are
// small; a copy is cheaper than an iovec entry).
func (e *wireEnc) argString(s string) {
	e.bulkHeader(len(s))
	e.hdr = append(e.hdr, s...)
	e.crlf()
}

// argBytes encodes a bulk argument; large payloads become zero-copy
// external segments.
func (e *wireEnc) argBytes(b []byte) {
	e.bulkHeader(len(b))
	if len(b) >= zeroCopyMin {
		e.extRef(b)
	} else {
		e.hdr = append(e.hdr, b...)
	}
	e.crlf()
}

// argInt encodes an integer as a bulk string (the form commands use for
// numeric arguments like GETRANGE offsets).
func (e *wireEnc) argInt(v int64) {
	var tmp [20]byte
	s := strconv.AppendInt(tmp[:0], v, 10)
	e.bulkHeader(len(s))
	e.hdr = append(e.hdr, s...)
	e.crlf()
}

// Reply encoders (server side).

func (e *wireEnc) simple(s string) {
	e.hdr = append(e.hdr, '+')
	e.hdr = append(e.hdr, s...)
	e.crlf()
}

func (e *wireEnc) errorReply(msg string) {
	e.hdr = append(e.hdr, '-')
	e.hdr = append(e.hdr, msg...)
	e.crlf()
}

func (e *wireEnc) intReply(v int64) {
	e.hdr = append(e.hdr, ':')
	e.hdr = strconv.AppendInt(e.hdr, v, 10)
	e.crlf()
}

func (e *wireEnc) nilBulk() { e.hdr = append(e.hdr, '$', '-', '1', '\r', '\n') }

func (e *wireEnc) arrayHeader(n int) {
	e.hdr = append(e.hdr, '*')
	e.hdr = strconv.AppendInt(e.hdr, int64(n), 10)
	e.crlf()
}

// extRef closes the open header segment and appends b as a zero-copy
// external segment. b must stay valid until reset.
func (e *wireEnc) extRef(b []byte) {
	e.closeSeg()
	e.segs = append(e.segs, encSeg{ext: b})
	e.extBytes += len(b)
}

func (e *wireEnc) closeSeg() {
	if len(e.hdr) > e.curStart {
		e.segs = append(e.segs, encSeg{off: e.curStart, end: len(e.hdr)})
	}
	e.curStart = len(e.hdr)
}

// writeTo sends the tape. It does not consume the segments: calling it
// again re-sends the same bytes (the retry path after a broken
// connection). The iovec slice handed to net.Buffers is rebuilt per call
// because WriteTo advances it in place.
func (e *wireEnc) writeTo(w io.Writer) error {
	e.closeSeg()
	if len(e.segs) == 0 {
		return nil
	}
	if len(e.segs) == 1 && e.segs[0].ext == nil {
		_, err := w.Write(e.hdr[e.segs[0].off:e.segs[0].end])
		return err
	}
	e.iov = e.iov[:0]
	for _, s := range e.segs {
		if s.ext != nil {
			e.iov = append(e.iov, s.ext)
		} else {
			e.iov = append(e.iov, e.hdr[s.off:s.end])
		}
	}
	_, err := e.iov.WriteTo(w)
	return err
}

// encPool recycles pipeline tapes across bursts. Counters and the poison
// hook exist for the pool-hygiene tests: gets and puts must balance on
// every exit path (leaks show up as a counter gap), and poisoned arenas
// catch any caller still reading a tape after release.
var (
	encPool = sync.Pool{New: func() any { return new(wireEnc) }}

	encGets atomic.Int64
	encPuts atomic.Int64

	// poisonPooled, when set by a test, scribbles 0xDB over released
	// buffers so use-after-release reads garbage deterministically
	// instead of stale-but-plausible data.
	poisonPooled atomic.Bool
)

func poisonBuf(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = 0xDB
	}
}

func getEnc() *wireEnc {
	encGets.Add(1)
	e := encPool.Get().(*wireEnc)
	e.reset()
	return e
}

func putEnc(e *wireEnc) {
	encPuts.Add(1)
	if poisonPooled.Load() {
		poisonBuf(e.hdr)
	}
	e.reset()
	if cap(e.hdr) > maxPooledEncBytes {
		e.hdr = nil
	}
	for i := range e.iov {
		e.iov[i] = nil
	}
	e.iov = e.iov[:0]
	encPool.Put(e)
}
