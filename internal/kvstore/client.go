package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memfss/internal/obs"
)

// ErrClosed is returned by client operations after Close.
var ErrClosed = errors.New("kvstore: client closed")

// ErrUnavailable marks transport-level failures: the store could not be
// dialed, timed out, or dropped the connection on every attempt. Callers
// use errors.Is(err, ErrUnavailable) to distinguish "the node is gone or
// flaky" (retryable elsewhere, e.g. on another replica) from store-level
// errors such as OOM or WRONGTYPE, which would fail identically anywhere.
var ErrUnavailable = errors.New("kvstore: store unavailable")

// Client is a pooled protocol client for one store server. It is safe for
// concurrent use: up to poolSize requests proceed in parallel, each on its
// own authenticated connection. Connections are created lazily.
//
// The pool is one mutex over a stack of idle connections and a count of
// live ones: a checkout holds the lock for a pop, and the round trip that
// follows it costs three orders of magnitude more.
type Client struct {
	addr        string
	password    string
	timeout     time.Duration
	maxAttempts int
	baseDelay   time.Duration
	maxDelay    time.Duration
	opTimeout   time.Duration
	observer    func(err error)

	ops      atomic.Int64 // operations started (commands + pipeline bursts)
	attempts atomic.Int64 // connection attempts across all operations

	// Telemetry (nil when DialOptions.Metrics is unset; every obs method
	// is a no-op on nil, so the hot path below never branches on it).
	metrics     *obs.Registry
	class       string
	opsOK       *obs.Counter
	opsErr      *obs.Counter
	retries     *obs.Counter
	attemptHist *obs.Histogram
	probeHist   *obs.Histogram
	opHists     sync.Map // command verb -> *obs.Histogram

	poolSize int
	poolMu   sync.Mutex
	idle     []*clientConn // most recently returned last
	total    int           // live connections: idle, checked out, or dialing
	closed   atomic.Bool
	waitCh   chan struct{}
}

// clientConn is one pooled connection. Its encoder owns a persistent
// header arena, so single-command round trips reuse the same buffer for
// the life of the connection — no pool traffic at all on that path.
type clientConn struct {
	conn net.Conn
	br   *bufio.Reader
	enc  wireEnc
}

// startOp arms the round-trip deadline and resets the connection's
// encoder for a fresh command.
func (cc *clientConn) startOp(timeout time.Duration) error {
	cc.enc.reset()
	return cc.conn.SetDeadline(time.Now().Add(timeout))
}

// DialOptions configures a Client.
type DialOptions struct {
	// Password authenticates each connection; empty disables AUTH.
	Password string
	// PoolSize bounds concurrent connections (default 4).
	PoolSize int
	// Timeout bounds dialing and each request round trip (default 10s).
	Timeout time.Duration
	// MaxAttempts bounds how many connections one operation (a command or
	// a pipeline burst) may burn before giving up (default 3). The first
	// attempt is free of backoff: a pooled connection the server idled out
	// looks exactly like a dead store on the first try but not the second.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; it doubles per
	// attempt with jitter up to MaxDelay (defaults 5ms / 250ms).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// OpTimeout is the deadline for a whole operation including retries
	// and backoff sleeps: once exceeded, no further attempt is scheduled
	// (default: Timeout). Individual attempts are still bounded by
	// Timeout, so an operation never outlives roughly
	// MaxAttempts*Timeout + backoff.
	OpTimeout time.Duration
	// Observer, if set, is called once per operation with its final
	// outcome: nil on success, the ErrUnavailable-wrapped error when every
	// attempt failed. It feeds passive evidence to a failure detector, so
	// it must be fast and must not call back into the client. Operations
	// aborted by Close are not reported — teardown is not node failure.
	Observer func(err error)
	// Metrics, if set, receives this client's telemetry: per-command
	// latency (memfss_kvstore_op_seconds{op,class}), per-attempt latency
	// (memfss_kvstore_attempt_seconds{node,class}), outcome counters
	// (memfss_kvstore_ops_total{node,class,outcome}) and retry counts
	// (memfss_kvstore_retries_total{node,class}). Node and Class label the
	// series; both default to the dial address when empty.
	Metrics *obs.Registry
	// Node is the deployment-level node ID for metric labels.
	Node string
	// Class is the node's placement class ("own" or "victim") for metric
	// labels.
	Class string
}

// StatAttemptCap bounds how many per-attempt durations an OpStat
// records; attempts past the cap still count in Attempts but lose their
// individual timing. Sized to the deepest retry policy in the tree (the
// chaos soak's MaxAttempts of 8).
const StatAttemptCap = 8

// OpStat, when passed to a *Stat method, receives the operation's final
// attempt count and wall-clock duration (including backoff sleeps), plus
// the wall time of each individual connection attempt — enough for a
// higher-level tracer to reconstruct per-attempt retry spans without the
// client knowing anything about tracing.
type OpStat struct {
	Attempts int
	Dur      time.Duration
	// AttemptDur[i] is the i-th connection attempt's duration (dial +
	// request round trip, excluding backoff sleeps), for i < Attempts,
	// capped at StatAttemptCap entries.
	AttemptDur [StatAttemptCap]time.Duration
}

// Dial creates a client for the server at addr. No connection is opened
// until the first request.
func Dial(addr string, opts DialOptions) *Client {
	if opts.PoolSize <= 0 {
		opts.PoolSize = 4
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 10 * time.Second
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	if opts.BaseDelay <= 0 {
		opts.BaseDelay = 5 * time.Millisecond
	}
	if opts.MaxDelay <= 0 {
		opts.MaxDelay = 250 * time.Millisecond
	}
	if opts.OpTimeout <= 0 {
		opts.OpTimeout = opts.Timeout
	}
	c := &Client{
		addr:        addr,
		password:    opts.Password,
		timeout:     opts.Timeout,
		maxAttempts: opts.MaxAttempts,
		baseDelay:   opts.BaseDelay,
		maxDelay:    opts.MaxDelay,
		opTimeout:   opts.OpTimeout,
		observer:    opts.Observer,
		poolSize:    opts.PoolSize,
		waitCh:      make(chan struct{}, 1),
	}
	if opts.Metrics != nil {
		node := opts.Node
		if node == "" {
			node = addr
		}
		class := opts.Class
		if class == "" {
			class = addr
		}
		c.metrics = opts.Metrics
		c.class = class
		nc := obs.L("node", node, "class", class)
		c.opsOK = opts.Metrics.Counter("memfss_kvstore_ops_total",
			"Store client operations by final outcome.",
			obs.L("node", node, "class", class, "outcome", "ok"))
		c.opsErr = opts.Metrics.Counter("memfss_kvstore_ops_total",
			"Store client operations by final outcome.",
			obs.L("node", node, "class", class, "outcome", "error"))
		c.retries = opts.Metrics.Counter("memfss_kvstore_retries_total",
			"Store client retry attempts beyond the first.", nc)
		c.attemptHist = opts.Metrics.Histogram("memfss_kvstore_attempt_seconds",
			"Latency of individual connection attempts.", nc, nil)
		c.probeHist = opts.Metrics.Histogram("memfss_kvstore_probe_seconds",
			"Latency of single-shot health probes (PingOnce).", nc, nil)
	}
	return c
}

// opHist lazily resolves the per-command latency histogram; the op label
// is the command verb (bounded by the protocol's command set) plus
// "PIPELINE" for bursts, and cardinality is kept down by labeling with
// the node class rather than the node.
func (c *Client) opHist(op string) *obs.Histogram {
	if c.metrics == nil {
		return nil
	}
	if h, ok := c.opHists.Load(op); ok {
		return h.(*obs.Histogram)
	}
	h := c.metrics.Histogram("memfss_kvstore_op_seconds",
		"End-to-end store command latency including retries and backoff.",
		obs.L("op", op, "class", c.class), nil)
	c.opHists.Store(op, h)
	return h
}

// Ops returns how many operations (commands and pipeline bursts) the
// client has started.
func (c *Client) Ops() int64 { return c.ops.Load() }

// Attempts returns how many connection attempts those operations consumed;
// Attempts-Ops is the retry count. The retry policy guarantees
// Attempts <= MaxAttempts * Ops — the bound soak tests assert to rule out
// retry storms.
func (c *Client) Attempts() int64 { return c.attempts.Load() }

// Close tears down all idle connections; in-flight requests finish and
// their connections are then discarded.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.poolMu.Lock()
	idle := c.idle
	c.idle = nil
	c.total -= len(idle)
	c.poolMu.Unlock()
	for _, cc := range idle {
		cc.conn.Close()
	}
	c.signal() // wake a blocked waiter so it observes closed
	return nil
}

// getConn checks out a connection: an idle one if there is one, a fresh
// one while the pool is under PoolSize, and only then blocks for a return.
func (c *Client) getConn() (*clientConn, error) {
	for {
		if c.closed.Load() {
			return nil, ErrClosed
		}
		c.poolMu.Lock()
		if k := len(c.idle); k > 0 {
			cc := c.idle[k-1]
			c.idle[k-1] = nil
			c.idle = c.idle[:k-1]
			c.poolMu.Unlock()
			return cc, nil
		}
		if c.total < c.poolSize {
			c.total++
			c.poolMu.Unlock()
			cc, err := c.dialConn()
			if err != nil {
				c.poolMu.Lock()
				c.total--
				c.poolMu.Unlock()
				c.signal()
				return nil, err
			}
			return cc, nil
		}
		c.poolMu.Unlock()
		select {
		case <-c.waitCh:
		case <-time.After(c.timeout):
			return nil, fmt.Errorf("kvstore: timed out waiting for a pooled connection to %s", c.addr)
		}
	}
}

func (c *Client) signal() {
	select {
	case c.waitCh <- struct{}{}:
	default:
	}
}

func (c *Client) putConn(cc *clientConn, broken bool) {
	c.poolMu.Lock()
	if broken || c.closed.Load() {
		c.total--
		c.poolMu.Unlock()
		cc.conn.Close()
	} else {
		c.idle = append(c.idle, cc)
		c.poolMu.Unlock()
	}
	c.signal()
}

func (c *Client) dialConn() (*clientConn, error) {
	conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		return nil, fmt.Errorf("kvstore: dial %s: %w", c.addr, err)
	}
	cc := &clientConn{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}
	if c.password != "" {
		reply, err := cc.roundTrip(c.timeout, verbAuth, []byte(c.password))
		if err != nil {
			conn.Close()
			return nil, err
		}
		if err := reply.Err(); err != nil {
			conn.Close()
			return nil, fmt.Errorf("kvstore: auth to %s: %w", c.addr, err)
		}
	}
	return cc, nil
}

// roundTrip sends one generically-built command and decodes its reply —
// the cold path behind do(); hot commands use the specialized encoders
// below instead.
func (cc *clientConn) roundTrip(timeout time.Duration, args ...[]byte) (*Reply, error) {
	if err := cc.startOp(timeout); err != nil {
		return nil, err
	}
	cc.enc.beginCommand(len(args))
	for _, a := range args {
		cc.enc.argBytes(a)
	}
	if err := cc.enc.writeTo(cc.conn); err != nil {
		return nil, err
	}
	return ReadReply(cc.br)
}

// backoffDelay computes the sleep before attempt+1: exponential from
// BaseDelay, capped at MaxDelay, with uniform jitter over [d/2, d) so a
// burst of failures against one store does not retry in lockstep.
func (c *Client) backoffDelay(attempt int) time.Duration {
	d := c.baseDelay
	for i := 1; i < attempt && d < c.maxDelay; i++ {
		d *= 2
	}
	if d > c.maxDelay {
		d = c.maxDelay
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// withRetry runs op on a pooled connection, retrying transport failures up
// to MaxAttempts times with exponential backoff + jitter, all inside the
// OpTimeout deadline. Only idempotent operations belong here (every data-
// path command is; INCR/SADD callers tolerate re-execution as documented
// on Pipeline). Exhausted retries yield an error wrapping ErrUnavailable
// that names the operation, the address, and the attempt count, so the
// failure is diagnosable — and classifiable — upstream. burst is the
// command count of a pipeline, 0 for a single command: it only words the
// failure, so the text is formatted on that path alone.
func (c *Client) withRetry(op string, burst int, st *OpStat, fn func(cc *clientConn) error) error {
	c.ops.Add(1)
	opStart := time.Now()
	deadline := opStart.Add(c.opTimeout)
	var lastErr error
	var attDur [StatAttemptCap]time.Duration
	attempts := 0
	for attempt := 1; attempt <= c.maxAttempts; attempt++ {
		attempts++
		c.attempts.Add(1)
		attStart := time.Now()
		cc, err := c.getConn()
		if err == nil {
			if err = fn(cc); err == nil {
				elapsed := time.Since(attStart)
				if attempts <= StatAttemptCap {
					attDur[attempts-1] = elapsed
				}
				c.putConn(cc, false)
				c.attemptHist.Observe(elapsed)
				c.finishOp(op, opStart, attempts, attDur, st, true)
				if c.observer != nil {
					c.observer(nil)
				}
				return nil
			}
			c.putConn(cc, true)
		}
		elapsed := time.Since(attStart)
		if attempts <= StatAttemptCap {
			attDur[attempts-1] = elapsed
		}
		c.attemptHist.Observe(elapsed)
		if errors.Is(err, ErrClosed) {
			// Client torn down on purpose: retrying is pointless, and
			// teardown is neither detector evidence nor an error outcome.
			fillStat(st, attempts, time.Since(opStart), attDur)
			return err
		}
		lastErr = err
		if attempt == c.maxAttempts {
			break
		}
		d := c.backoffDelay(attempt)
		remain := time.Until(deadline)
		if remain <= 0 {
			break // per-op deadline exhausted: no further attempt
		}
		if d > remain {
			d = remain
		}
		c.retries.Inc()
		time.Sleep(d)
	}
	label := op
	if burst > 0 {
		label = fmt.Sprintf("pipeline of %d commands", burst)
	}
	finalErr := fmt.Errorf("%w: %s to %s failed after %d attempts: %v",
		ErrUnavailable, label, c.addr, attempts, lastErr)
	c.finishOp(op, opStart, attempts, attDur, st, false)
	if c.observer != nil {
		c.observer(finalErr)
	}
	return finalErr
}

// finishOp records an operation's final telemetry: the OpStat out-param
// for the caller's trace, the outcome counter, and the per-command
// latency histogram.
func (c *Client) finishOp(op string, start time.Time, attempts int, attDur [StatAttemptCap]time.Duration, st *OpStat, ok bool) {
	dur := time.Since(start)
	fillStat(st, attempts, dur, attDur)
	if c.metrics == nil {
		return
	}
	if ok {
		c.opsOK.Inc()
	} else {
		c.opsErr.Inc()
	}
	c.opHist(op).Observe(dur)
}

func fillStat(st *OpStat, attempts int, dur time.Duration, attDur [StatAttemptCap]time.Duration) {
	if st != nil {
		st.Attempts = attempts
		st.Dur = dur
		st.AttemptDur = attDur
	}
}

// do sends one command and decodes the reply, retrying per the client's
// retry policy on broken connections (the server may have closed an idle
// pooled one, or the node may be flapping).
func (c *Client) do(args ...[]byte) (*Reply, error) { return c.doStat(nil, args...) }

func (c *Client) doStat(st *OpStat, args ...[]byte) (*Reply, error) {
	var reply *Reply
	verb := verbOf(args[0])
	err := c.withRetry(verb, 0, st, func(cc *clientConn) error {
		r, err := cc.roundTrip(c.timeout, args...)
		if err != nil {
			return err
		}
		reply = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return reply, nil
}

func bs(ss ...string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

// Fixed command verbs for the cold-path commands, precomputed once
// instead of rebuilt per call. (Hot-path commands encode their verb
// straight onto the wire tape and never materialize it.) These are
// shared across goroutines: callers must treat them as immutable.
var (
	verbAuth     = []byte("AUTH")
	verbPing     = []byte("PING")
	verbSetNX    = []byte("SETNX")
	verbDel      = []byte("DEL")
	verbSAdd     = []byte("SADD")
	verbSRem     = []byte("SREM")
	verbSMembers = []byte("SMEMBERS")
	verbSCard    = []byte("SCARD")
	verbIncr     = []byte("INCR")
	verbKeys     = []byte("KEYS")
	verbKeysN    = []byte("KEYSN")
	verbDelVal   = []byte("DELVAL")
	verbFlushAll = []byte("FLUSHALL")
	verbMemCap   = []byte("MEMCAP")
	verbInfo     = []byte("INFO")
	verbMGet     = []byte("MGET")
)

func (c *Client) doSimple(args ...[]byte) error { return c.doSimpleStat(nil, args...) }

func (c *Client) doSimpleStat(st *OpStat, args ...[]byte) error {
	reply, err := c.doStat(st, args...)
	if err != nil {
		return err
	}
	return reply.Err()
}

func (c *Client) doInt(args ...[]byte) (int64, error) { return c.doIntStat(nil, args...) }

func (c *Client) doIntStat(st *OpStat, args ...[]byte) (int64, error) {
	reply, err := c.doStat(st, args...)
	if err != nil {
		return 0, err
	}
	if err := reply.Err(); err != nil {
		return 0, err
	}
	if reply.Kind != ':' {
		return 0, fmt.Errorf("kvstore: unexpected reply kind %q", reply.Kind)
	}
	return reply.Int, nil
}

// Ping checks liveness.
func (c *Client) Ping() error { return c.doSimple(verbPing) }

// PingOnce checks liveness with a single connection attempt: no retries,
// no backoff, and no Observer callback. It is the active-probe primitive —
// the prober reports the outcome to the detector itself, and retries here
// would both double-count evidence and stretch the probe cadence.
func (c *Client) PingOnce() error {
	start := time.Now()
	cc, err := c.getConn()
	if err != nil {
		c.probeHist.Observe(time.Since(start))
		return err
	}
	reply, err := cc.roundTrip(c.timeout, verbPing)
	c.probeHist.Observe(time.Since(start))
	if err != nil {
		c.putConn(cc, true)
		return err
	}
	c.putConn(cc, false)
	return reply.Err()
}

// The methods below are the data-path hot commands. Each encodes straight
// from its typed arguments into the connection's persistent encoder — no
// [][]byte argument slice, no []byte(key) conversion, no Reply struct —
// and separates store-level error replies from transport failures so the
// retry loop never replays a command the store already rejected.

// Set stores value under key.
func (c *Client) Set(key string, value []byte) error { return c.SetStat(key, value, nil) }

// SetStat is Set with an optional OpStat out-param for trace attribution.
func (c *Client) SetStat(key string, value []byte, st *OpStat) error {
	var errMsg string
	err := c.withRetry("SET", 0, st, func(cc *clientConn) error {
		if err := cc.startOp(c.timeout); err != nil {
			return err
		}
		cc.enc.beginCommand(3)
		cc.enc.argString("SET")
		cc.enc.argString(key)
		cc.enc.argBytes(value)
		if err := cc.enc.writeTo(cc.conn); err != nil {
			return err
		}
		var err error
		errMsg, err = readStatusReply(cc.br)
		return err
	})
	if err != nil {
		return err
	}
	if errMsg != "" {
		return replyError(errMsg)
	}
	return nil
}

// SetNX stores value only if key is absent, reporting whether it stored.
func (c *Client) SetNX(key string, value []byte) (bool, error) {
	n, err := c.doInt(verbSetNX, []byte(key), value)
	return n == 1, err
}

// Get fetches key's value; ok is false if the key is absent. The value is
// a fresh allocation owned by the caller.
func (c *Client) Get(key string) (value []byte, ok bool, err error) {
	return c.GetStat(key, nil)
}

// GetStat is Get with an optional OpStat out-param for trace attribution.
func (c *Client) GetStat(key string, st *OpStat) (value []byte, ok bool, err error) {
	var errMsg string
	rerr := c.withRetry("GET", 0, st, func(cc *clientConn) error {
		if err := cc.startOp(c.timeout); err != nil {
			return err
		}
		cc.enc.beginCommand(2)
		cc.enc.argString("GET")
		cc.enc.argString(key)
		if err := cc.enc.writeTo(cc.conn); err != nil {
			return err
		}
		v, k, msg, err := readBulkReplyAlloc(cc.br)
		if err != nil {
			return err
		}
		value, ok, errMsg = v, k, msg
		return nil
	})
	if rerr != nil {
		return nil, false, rerr
	}
	if errMsg != "" {
		return nil, false, replyError(errMsg)
	}
	return value, ok, nil
}

// GetRangeInto fetches up to length bytes at offset of key's value,
// decoding the payload directly into dst — the zero-copy read path the
// stripe reads in core use. It returns how many bytes were written to
// dst; n < length means the stored value ended early (short ranges are
// NOT zero-padded — that is the caller's policy). len(dst) must be at
// least length. On error or ok=false, dst's contents are undefined.
func (c *Client) GetRangeInto(key string, offset, length int64, dst []byte) (n int, ok bool, err error) {
	return c.GetRangeIntoStat(key, offset, length, dst, nil)
}

// GetRangeIntoStat is GetRangeInto with an optional OpStat out-param.
func (c *Client) GetRangeIntoStat(key string, offset, length int64, dst []byte, st *OpStat) (n int, ok bool, err error) {
	if int64(len(dst)) < length {
		return 0, false, fmt.Errorf("kvstore: GetRangeInto destination %d short of length %d", len(dst), length)
	}
	var errMsg string
	rerr := c.withRetry("GETRANGE", 0, st, func(cc *clientConn) error {
		if err := cc.sendGetRange(c.timeout, key, offset, length); err != nil {
			return err
		}
		rn, k, msg, err := readBulkReplyInto(cc.br, dst)
		if err != nil {
			return err
		}
		n, ok, errMsg = rn, k, msg
		return nil
	})
	if rerr != nil {
		return 0, false, rerr
	}
	if errMsg != "" {
		return 0, false, replyError(errMsg)
	}
	return n, ok, nil
}

func (cc *clientConn) sendGetRange(timeout time.Duration, key string, offset, length int64) error {
	if err := cc.startOp(timeout); err != nil {
		return err
	}
	cc.enc.beginCommand(4)
	cc.enc.argString("GETRANGE")
	cc.enc.argString(key)
	cc.enc.argInt(offset)
	cc.enc.argInt(length)
	return cc.enc.writeTo(cc.conn)
}

// SetRange writes value at offset within key's value, zero-extending.
func (c *Client) SetRange(key string, offset int64, value []byte) error {
	return c.SetRangeStat(key, offset, value, nil)
}

// SetRangeStat is SetRange with an optional OpStat out-param.
func (c *Client) SetRangeStat(key string, offset int64, value []byte, st *OpStat) error {
	var errMsg string
	err := c.withRetry("SETRANGE", 0, st, func(cc *clientConn) error {
		if err := cc.startOp(c.timeout); err != nil {
			return err
		}
		cc.enc.beginCommand(4)
		cc.enc.argString("SETRANGE")
		cc.enc.argString(key)
		cc.enc.argInt(offset)
		cc.enc.argBytes(value)
		if err := cc.enc.writeTo(cc.conn); err != nil {
			return err
		}
		var err error
		errMsg, err = readStatusReply(cc.br)
		return err
	})
	if err != nil {
		return err
	}
	if errMsg != "" {
		return replyError(errMsg)
	}
	return nil
}

// Whole is the Pipeline.VSet offset that replaces the value instead of
// writing a range into it.
const Whole = -1

// Del removes keys, returning how many existed.
func (c *Client) Del(keys ...string) (int64, error) {
	args := append([][]byte{verbDel}, bs(keys...)...)
	return c.doInt(args...)
}

// SAdd adds members to the set at key.
func (c *Client) SAdd(key string, members ...string) (int64, error) {
	args := append([][]byte{verbSAdd, []byte(key)}, bs(members...)...)
	return c.doInt(args...)
}

// SRem removes members from the set at key.
func (c *Client) SRem(key string, members ...string) (int64, error) {
	args := append([][]byte{verbSRem, []byte(key)}, bs(members...)...)
	return c.doInt(args...)
}

// SMembers lists the set at key, sorted.
func (c *Client) SMembers(key string) ([]string, error) {
	reply, err := c.do(verbSMembers, []byte(key))
	if err != nil {
		return nil, err
	}
	if err := reply.Err(); err != nil {
		return nil, err
	}
	out := make([]string, len(reply.Array))
	for i, b := range reply.Array {
		out[i] = string(b)
	}
	return out, nil
}

// SCard returns the cardinality of the set at key.
func (c *Client) SCard(key string) (int64, error) {
	return c.doInt(verbSCard, []byte(key))
}

// Incr increments the counter at key and returns the new value.
func (c *Client) Incr(key string) (int64, error) {
	return c.doInt(verbIncr, []byte(key))
}

// Keys lists all keys with the given prefix, sorted.
func (c *Client) Keys(prefix string) ([]string, error) {
	reply, err := c.do(verbKeys, []byte(prefix))
	if err != nil {
		return nil, err
	}
	if err := reply.Err(); err != nil {
		return nil, err
	}
	out := make([]string, len(reply.Array))
	for i, b := range reply.Array {
		out[i] = string(b)
	}
	return out, nil
}

// KeysN lists up to n keys with the given prefix, sorted — the bounded
// listing a partial drain uses so one pass over a huge store doesn't
// marshal every key.
func (c *Client) KeysN(prefix string, n int) ([]string, error) {
	reply, err := c.do(verbKeysN, []byte(prefix), []byte(strconv.Itoa(n)))
	if err != nil {
		return nil, err
	}
	if err := reply.Err(); err != nil {
		return nil, err
	}
	out := make([]string, len(reply.Array))
	for i, b := range reply.Array {
		out[i] = string(b)
	}
	return out, nil
}

// DelVal deletes key only if it still holds exactly value, and reports
// whether it did — the compare-and-delete that makes copy-then-delete
// eviction safe against a write racing in between.
func (c *Client) DelVal(key string, value []byte) (bool, error) {
	n, err := c.doInt(verbDelVal, []byte(key), value)
	return n == 1, err
}

// FlushAll clears the store.
func (c *Client) FlushAll() error { return c.doSimple(verbFlushAll) }

// SetMemCap sets the server's memory cap in bytes (0 = unlimited).
func (c *Client) SetMemCap(n int64) error {
	return c.doSimple(verbMemCap, []byte(strconv.FormatInt(n, 10)))
}

// Info fetches the server's stats snapshot.
func (c *Client) Info() (Stats, error) {
	reply, err := c.do(verbInfo)
	if err != nil {
		return Stats{}, err
	}
	if err := reply.Err(); err != nil {
		return Stats{}, err
	}
	return parseInfo(string(reply.Bulk))
}

func parseInfo(s string) (Stats, error) {
	var st Stats
	for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			return Stats{}, fmt.Errorf("kvstore: malformed INFO line %q", line)
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return Stats{}, fmt.Errorf("kvstore: malformed INFO value %q", line)
		}
		switch k {
		case "bytes_used":
			st.BytesUsed = n
		case "max_memory":
			st.MaxMemory = n
		case "num_keys":
			st.NumKeys = int(n)
		case "num_sets":
			st.NumSets = int(n)
		case "total_ops":
			st.TotalOps = n
		case "pressure":
			st.Pressure = n == 1
		}
	}
	return st, nil
}
