package kvstore

import (
	"bufio"
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"

	"memfss/internal/erasure"
)

// Server serves the kvstore wire protocol over TCP. One Server wraps one
// Store — exactly one store process per node, as MemFSS runs Redis
// (paper §V-C argues a single store process per node minimizes overhead).
type Server struct {
	store    *Store
	password string

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	acceptWG sync.WaitGroup
}

// NewServer wraps store in a protocol server. A non-empty password enables
// the AUTH requirement of paper §III-F: only clients holding the password
// (the own-node clients) may issue commands.
func NewServer(store *Store, password string) *Server {
	return &Server{store: store, password: password, conns: make(map[net.Conn]struct{})}
}

// Store returns the underlying store (for in-process introspection).
func (s *Server) Store() *Store { return s.store }

// Listen binds addr ("host:port"; ":0" picks a free port) and starts
// serving in background goroutines. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("kvstore: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", errors.New("kvstore: server already closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.acceptWG.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.acceptWG.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Close stops accepting, closes live connections, and waits for the accept
// loop to exit. The store's contents are untouched.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.acceptWG.Wait()
	return nil
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// cmdReader decodes commands for one connection into reusable storage:
// one flat byte buffer (the arena) holds every argument payload, and the
// arg slice headers are rebuilt over it — a steady-state command costs
// zero allocations. Arena args are valid only until the next call;
// dispatch must finish with them before the next command is read.
//
// The one exception is a value the store keeps: the value of SET, SETNX
// and a whole-value VSET is read into kept, which dispatch hands to the
// store as is — an exact-size payload buffer, and no copy. The buffer is
// one the store recycled when a pooled one of that size is free (an
// overwrite reuses the buffer it replaces), else a new allocation. A SET
// or SETNX value that starts with a stripe header leaves the header in
// kept.hdr, so a page-sized stripe is a page-sized buffer; a VSET's value
// is a payload (the store stamps its header). Its argument is kept.val.
type cmdReader struct {
	br   *bufio.Reader
	args [][]byte
	offs [][2]int
	buf  []byte
	kept entry
}

// cmdBufKeep caps the argument buffer retained between commands, so one
// 64 MiB SETRANGE doesn't pin that much per connection forever.
const cmdBufKeep = 1 << 20

func newCmdReader(conn net.Conn) *cmdReader {
	return &cmdReader{br: bufio.NewReaderSize(conn, 64<<10)}
}

// keeps reports whether argument i of an n-argument command with this verb
// is a value the store keeps.
func keeps(verb string, n, i int) bool {
	return i == 2 && n == 3 && (verb == "SET" || verb == "SETNX") || i == 3 && n == 4 && verb == "VSET"
}

// readKept reads a kept value of n bytes (its bulk header consumed),
// first splitting off a stripe header when split is set, into a pooled
// payload buffer (pooledPayload) that fillPayload overwrites whole. The
// test peeks at buffered bytes, so a value without a header costs only
// the read.
func readKept(br *bufio.Reader, n int64, split bool) (e entry, err error) {
	if split && n >= erasure.HeaderSize {
		h, err := br.Peek(erasure.HeaderSize)
		if err != nil {
			return e, err
		}
		if erasure.HasHeader(h) {
			e.hdr = newHdr(h)
			_, _ = br.Discard(erasure.HeaderSize) // the peeked bytes: cannot fail
			n -= erasure.HeaderSize
		}
	}
	e.val, err = fillPayload(br, pooledPayload(n))
	return e, err
}

// next reads one command and returns its canonical verb (see verbOf) with
// its arguments. io.EOF is returned unwrapped on a clean close before any
// bytes.
func (cr *cmdReader) next() (string, [][]byte, error) {
	if poisonPooled.Load() {
		poisonBuf(cr.buf)
	}
	if cap(cr.buf) > cmdBufKeep {
		cr.buf = nil
	}
	// Drop the last command's views, so an idle connection does not pin a
	// kept value the store has since deleted.
	clear(cr.args)
	cr.kept = entry{}
	line, err := readLine(cr.br)
	if err != nil {
		return "", nil, err
	}
	if len(line) == 0 || line[0] != '*' {
		return "", nil, fmt.Errorf("%w: expected array, got %q", errProtocol, line)
	}
	n64, err := parseInt(line[1:])
	if err != nil {
		return "", nil, err
	}
	if n64 <= 0 || n64 > maxArrayLen {
		return "", nil, fmt.Errorf("%w: array length %d out of range", errProtocol, n64)
	}
	n := int(n64)
	if cap(cr.args) < n {
		cr.args = make([][]byte, n)
		cr.offs = make([][2]int, n)
	}
	cr.args = cr.args[:n]
	cr.offs = cr.offs[:n]
	var verb string
	pos := 0
	for i := 0; i < n; i++ {
		ln64, isNil, err := readBulkHeader(cr.br)
		if err != nil {
			return "", nil, err
		}
		if isNil {
			return "", nil, fmt.Errorf("%w: nil bulk inside command", errProtocol)
		}
		if keeps(verb, n, i) {
			if cr.kept, err = readKept(cr.br, ln64, verb != "VSET"); err != nil {
				return "", nil, err
			}
			cr.offs[i] = [2]int{pos, pos} // an empty view, replaced by kept below
			continue
		}
		ln := int(ln64)
		need := pos + ln + 2
		if need > cap(cr.buf) {
			newCap := 2 * cap(cr.buf)
			if newCap < need {
				newCap = need
			}
			if newCap < 4<<10 {
				newCap = 4 << 10
			}
			nb := make([]byte, newCap)
			copy(nb, cr.buf[:pos])
			cr.buf = nb
		}
		cr.buf = cr.buf[:cap(cr.buf)]
		if _, err := io.ReadFull(cr.br, cr.buf[pos:need]); err != nil {
			return "", nil, err
		}
		if cr.buf[need-2] != '\r' || cr.buf[need-1] != '\n' {
			return "", nil, fmt.Errorf("%w: bulk not CRLF-terminated", errProtocol)
		}
		cr.offs[i] = [2]int{pos, pos + ln}
		if i == 0 {
			verb = verbOf(cr.buf[pos : pos+ln])
		}
		pos = need
	}
	for i := range cr.args {
		cr.args[i] = cr.buf[cr.offs[i][0]:cr.offs[i][1]]
	}
	if cr.kept.val != nil {
		cr.args[n-1] = cr.kept.val
	}
	return verb, cr.args, nil
}

// replyWriter accumulates replies for one connection in a vectored
// encoder: framing and small payloads in the reusable header arena, large
// payloads as zero-copy iovec entries. A GET or GETRANGE payload of
// zeroCopyMin bytes or more is the stored buffer itself, on loan from the
// store (Store.lendRange) until the encoder is written; every serveConn
// exit returns what is still out, so a dropped connection cannot leave a
// buffer that later in-place writes copy forever. Replies never reference
// cmdReader's argument buffer, which is what makes the hold-until-flush
// lifetime safe against the next command overwriting it.
type replyWriter struct {
	conn  net.Conn
	store *Store
	enc   wireEnc
	loans [][]byte // stored payloads enc references until it is written
}

// replyFlushBytes bounds reply accumulation mid-burst, the backpressure
// the old 64 KiB bufio.Writer provided implicitly.
const replyFlushBytes = 256 << 10

func (rw *replyWriter) flush() error {
	err := rw.enc.writeTo(rw.conn)
	rw.enc.reset()
	rw.endLoans()
	return err
}

// endLoans returns the payloads the queued replies borrowed.
func (rw *replyWriter) endLoans() {
	if len(rw.loans) == 0 {
		return
	}
	rw.store.endLoans(rw.loans)
	clear(rw.loans)
	rw.loans = rw.loans[:0]
}

func (rw *replyWriter) maybeFlush() error {
	if rw.enc.len() >= replyFlushBytes {
		return rw.flush()
	}
	return nil
}

// serveConn reads commands and writes replies. Replies are buffered, not
// flushed per command: when a client pipelines a burst of commands in one
// segment, the burst is answered with one vectored flush once the read
// buffer drains — the server side of the Pipeline API's single round trip.
func (s *Server) serveConn(conn net.Conn) {
	defer s.dropConn(conn)
	cr := newCmdReader(conn)
	rw := &replyWriter{conn: conn, store: s.store}
	defer rw.endLoans()
	authed := s.password == ""
	for {
		cmd, args, err := cr.next()
		if err != nil {
			if err != io.EOF {
				// Best effort: a malformed frame is unrecoverable, tell
				// the client why before dropping the connection.
				rw.enc.errorReply("ERR protocol: " + err.Error())
				_ = rw.flush()
			}
			return
		}
		switch {
		case !authed && cmd != "AUTH" && cmd != "PING":
			rw.enc.errorReply("NOAUTH authentication required")
		case cmd == "AUTH":
			switch {
			case len(args) != 2:
				rw.enc.errorReply("ERR wrong number of arguments for AUTH")
			case s.password == "":
				rw.enc.errorReply("ERR no password is set")
			case subtle.ConstantTimeCompare(args[1], []byte(s.password)) == 1:
				authed = true
				rw.enc.simple("OK")
			default:
				rw.enc.errorReply("WRONGPASS invalid password")
			}
		case cmd == "PING":
			rw.enc.simple("PONG")
		default:
			s.dispatch(rw, cmd, args[1:], cr.kept)
		}
		if err := rw.maybeFlush(); err != nil {
			return
		}
		// Flush only when no further pipelined command is already buffered;
		// mid-burst the reply stays queued behind its successors.
		if cr.br.Buffered() == 0 {
			if err := rw.flush(); err != nil {
				return
			}
		}
	}
}

// dispatch executes one authenticated command and queues its reply in rw.
// Replies are buffered in the encoder; write errors surface at flush. cmd
// and args come from one cmdReader.next, and kept is the entry it read a
// SET/SETNX/VSET value into, which goes to the store to keep.
func (s *Server) dispatch(rw *replyWriter, cmd string, args [][]byte, kept entry) {
	fail := func(format string, a ...any) {
		rw.enc.errorReply(fmt.Sprintf(format, a...))
	}
	storeErr := func(err error) {
		switch {
		case errors.Is(err, ErrOOM):
			rw.enc.errorReply("OOM command not allowed when used memory > maxmemory")
		case errors.Is(err, ErrWrongType):
			rw.enc.errorReply("WRONGTYPE operation against a key holding the wrong kind of value")
		case errors.Is(err, errTooLarge):
			rw.enc.errorReply("ERR string exceeds maximum allowed size")
		default:
			rw.enc.errorReply("ERR " + err.Error())
		}
	}
	intReply := func(n int64) { rw.enc.intReply(n) }
	getRange := func(key []byte, off, length int64) {
		loan, ok, err := s.store.lendRange(&rw.enc, string(key), off, length)
		switch {
		case err != nil:
			storeErr(err)
		case !ok:
			rw.enc.nilBulk()
		case loan != nil:
			rw.loans = append(rw.loans, loan)
		}
	}
	if v, ok := verbs[cmd]; ok && (len(args) < v.min || len(args) > v.max) {
		fail("ERR wrong number of arguments for %s", cmd)
		return
	}
	switch cmd {
	case "SET":
		if err := s.store.set(string(args[0]), kept); err != nil {
			storeErr(err)
			return
		}
		rw.enc.simple("OK")
	case "SETNX":
		ok, err := s.store.setNX(string(args[0]), kept)
		if err != nil {
			storeErr(err)
			return
		}
		if ok {
			intReply(1)
		} else {
			intReply(0)
		}
	case "GET":
		getRange(args[0], 0, math.MaxInt64)
	case "GETRANGE":
		off, err1 := parseInt(args[1])
		length, err2 := parseInt(args[2])
		if err1 != nil || err2 != nil {
			fail("ERR value is not an integer")
			return
		}
		getRange(args[0], off, length)
	case "SETRANGE":
		off, err := parseInt(args[1])
		if err != nil {
			fail("ERR value is not an integer")
			return
		}
		if err := s.store.SetRange(string(args[0]), off, args[2]); err != nil {
			storeErr(err)
			return
		}
		rw.enc.simple("OK")
	case "DEL":
		intReply(int64(s.store.Del(strs(args)...)))
	case "MGET":
		rw.arrayReply(s.store.MGet(strs(args)))
	case "VSET":
		// VSET key id value replaces the value; VSET key id off value
		// writes at payload offset off. Either replies the stamped
		// generation.
		id, err := parseInt(args[1])
		off := int64(0)
		if err == nil && len(args) == 4 {
			off, err = parseInt(args[2])
		}
		if err != nil {
			fail("ERR value is not an integer")
			return
		}
		var gen uint64
		if len(args) == 3 {
			gen, err = s.store.vset(string(args[0]), uint64(id), 0, nil, kept.val)
		} else {
			gen, err = s.store.vset(string(args[0]), uint64(id), off, args[3], nil)
		}
		if err != nil {
			storeErr(err)
			return
		}
		intReply(int64(gen))
	case "SADD":
		n, err := s.store.SAdd(string(args[0]), strs(args[1:])...)
		if err != nil {
			storeErr(err)
			return
		}
		intReply(int64(n))
	case "SREM":
		n, err := s.store.SRem(string(args[0]), strs(args[1:])...)
		if err != nil {
			storeErr(err)
			return
		}
		intReply(int64(n))
	case "SMEMBERS":
		members, err := s.store.SMembers(string(args[0]))
		if err != nil {
			storeErr(err)
			return
		}
		rw.enc.arrayHeader(len(members))
		for _, m := range members {
			rw.enc.argString(m)
		}
	case "SCARD":
		n, err := s.store.SCard(string(args[0]))
		if err != nil {
			storeErr(err)
			return
		}
		intReply(int64(n))
	case "INCR":
		n, err := s.store.Incr(string(args[0]))
		if err != nil {
			storeErr(err)
			return
		}
		intReply(n)
	case "SCAN":
		cursor, err1 := parseInt(args[0])
		count, err2 := parseInt(args[1])
		if err1 != nil || err2 != nil || cursor < 0 || count < 1 {
			fail("ERR invalid cursor or count")
			return
		}
		keys, next := s.store.Scan(cursor, int(min(count, maxArrayLen)))
		rw.enc.arrayHeader(1 + len(keys))
		rw.enc.argInt(next)
		for _, k := range keys {
			rw.enc.argString(k)
		}
	case "DELVAL":
		if s.store.DelIfEquals(string(args[0]), args[1]) {
			intReply(1)
		} else {
			intReply(0)
		}
	case "FLUSHALL":
		s.store.FlushAll()
		rw.enc.simple("OK")
	case "MEMCAP":
		n, err := parseInt(args[0])
		if err != nil || n < 0 {
			fail("ERR value is not a valid memory cap")
			return
		}
		s.store.SetMaxMemory(n)
		rw.enc.simple("OK")
	case "INFO":
		st := s.store.Stats()
		pressure := 0
		if st.Pressure {
			pressure = 1
		}
		info := fmt.Sprintf(
			"bytes_used:%d\nmax_memory:%d\nnum_keys:%d\nnum_sets:%d\ntotal_ops:%d\npressure:%d\n",
			st.BytesUsed, st.MaxMemory, st.NumKeys, st.NumSets, st.TotalOps, pressure)
		rw.enc.bulkHeader(len(info))
		rw.enc.hdr = append(rw.enc.hdr, info...)
		rw.enc.crlf()
	default:
		fail("ERR unknown command '%s'", cmd)
	}
}

// strs copies wire strings out: the command's arguments, or a reply's
// array.
func strs(b [][]byte) []string {
	out := make([]string, len(b))
	for i := range b {
		out[i] = string(b[i])
	}
	return out
}

// arrayReply writes an array-of-bulks reply; nil items encode as the nil
// bulk (MGET's missing-key marker). Items are caller-owned allocations,
// referenced zero-copy until the next flush.
func (rw *replyWriter) arrayReply(items [][]byte) {
	rw.enc.arrayHeader(len(items))
	for _, it := range items {
		if it == nil {
			rw.enc.nilBulk()
			continue
		}
		rw.enc.argBytes(it)
	}
}
