package core

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"memfss/internal/container"
	"memfss/internal/erasure"
	"memfss/internal/fsmeta"
	"memfss/internal/health"
	"memfss/internal/hrw"
	"memfss/internal/kvstore"
	"memfss/internal/stripe"
)

// dataKey is the store key holding a stripe's bytes. The "data:" prefix
// separates stripe payloads from metadata so victim stores (which hold
// data only) can be drained by prefix.
func dataKey(stripeKey string) string { return "data:" + stripeKey }

// shardKey is the store key of one erasure shard of a stripe.
func shardKey(base string, i int) string { return base + "/s" + strconv.Itoa(i) }

// File is a handle on one MemFSS file. Handles are not safe for concurrent
// use; open one handle per goroutine (the workflow tasks of the paper each
// open their own files through the FUSE layer).
type File struct {
	fs       *FileSystem
	path     string
	rec      *fsmeta.FileRecord
	placer   *hrw.Placer
	layout   stripe.Layout
	coder    *erasure.Coder
	k        int // slots of one write that make a stripe readable: k shards, or one copy
	n        int // slots per stripe: k+m shards, R copies, or 1
	pos      int64
	size     int64
	writable bool
	dirty    bool
	closed   bool
	// tenant is the handle's QoS attribution, resolved once from the path
	// at open time ("" when unattributed or QoS is off).
	tenant string
}

// Path returns the file's cleaned path.
func (f *File) Path() string { return f.path }

// Size returns the file length in bytes, including unflushed writes.
func (f *File) Size() int64 { return f.size }

// Write appends len(p) bytes at the current offset.
func (f *File) Write(p []byte) (int, error) {
	n, err := f.WriteAt(p, f.pos)
	f.pos += int64(n)
	return n, err
}

// Read reads from the current offset, returning io.EOF at end of file.
func (f *File) Read(p []byte) (int, error) {
	n, err := f.ReadAt(p, f.pos)
	f.pos += int64(n)
	return n, err
}

// Seek sets the offset for the next Read or Write, interpreted per
// io.Seeker.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.pos
	case io.SeekEnd:
		base = f.size
	default:
		return 0, fmt.Errorf("memfss: bad seek whence %d", whence)
	}
	if base+offset < 0 {
		return 0, fmt.Errorf("memfss: negative seek position")
	}
	f.pos = base + offset
	return f.pos, nil
}

// WriteAt writes len(p) bytes at offset off, extending the file as needed.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if !f.writable {
		return 0, fmt.Errorf("memfss: %s opened read-only", f.path)
	}
	if err := f.fs.check(); err != nil {
		return 0, err
	}
	spans, err := f.layout.Spans(off, int64(len(p)))
	if err != nil {
		return 0, err
	}
	// QoS admission: reserve the file growth against the tenant's quota and
	// pace the payload through its weighted-fair bandwidth share.
	oldSize := f.size
	var growth int64
	if end := off + int64(len(p)); end > oldSize {
		growth = end - oldSize
	}
	tr := f.fs.newTrace("write", f.path, off, len(p))
	if err := f.fs.qosAdmitWrite(tr, f.tenant, growth, int64(len(p))); err != nil {
		tr.abort(err)
		return 0, err
	}
	starts := spanStarts(spans)
	f.fs.stats.stripeWrites.Add(int64(len(spans)))
	var okSpans int
	if f.coder != nil {
		// Each span prepares on its own (gather, read-modify-write,
		// encode) and ships its one plan as soon as it is ready.
		okSpans, err = f.runSpans(len(spans), func(i int) error {
			pl, err := f.planErasure(tr, spans[i], p[starts[i]:starts[i]+int(spans[i].Length)])
			if err != nil {
				return err
			}
			_, err = f.shipWrites(tr, []stripePlan{pl})
			pl.release(f.fs)
			return err
		})
	} else {
		plans := make([]stripePlan, len(spans))
		for i, span := range spans {
			plans[i] = f.planReplicated(span, p[starts[i]:starts[i]+int(span.Length)])
		}
		okSpans, err = f.shipWrites(tr, plans)
	}
	f.fs.finishTrace(tr, len(spans), err)
	written := 0
	if okSpans > 0 {
		written = starts[okSpans-1] + int(spans[okSpans-1].Length)
	}
	if err != nil {
		// A short write still wrote its leading spans: metadata must
		// cover that prefix, or Sync/Close records the stale size and the
		// successfully-written bytes become unreadable.
		if written > 0 {
			if end := off + int64(written); end > f.size {
				f.size = end
			}
			f.dirty = true
		}
		// Quota was reserved for the full growth; return the part the
		// short write never materialized.
		if growth > 0 {
			var actual int64
			if end := off + int64(written); end > oldSize {
				actual = end - oldSize
			}
			f.fs.qosCreditTenant(f.tenant, growth-actual)
		}
		return written, err
	}
	f.fs.stats.bytesWritten.Add(int64(len(p)))
	if end := off + int64(len(p)); end > f.size {
		f.size = end
		f.dirty = true
	}
	if len(p) > 0 {
		f.dirty = true
	}
	return written, nil
}

// spanStarts returns each span's byte offset within the operation buffer.
func spanStarts(spans []stripe.Span) []int {
	starts := make([]int, len(spans))
	pos := 0
	for i, s := range spans {
		starts[i] = pos
		pos += int(s.Length)
	}
	return starts
}

// runSpans executes fn for each of n spans, in parallel up to the file
// system's I/O parallelism (spans are distinct stripes, so the operations
// are independent). It returns how many *leading* spans succeeded — the
// contiguous prefix a short read/write count can honestly report — and
// the first error in span order.
func (f *File) runSpans(n int, fn func(i int) error) (int, error) {
	errs := make([]error, n)
	_ = fanoutN(f.fs.ioPar, n, func(i int) error {
		errs[i] = fn(i)
		return nil
	})
	return leadingOK(errs)
}

// leadingOK returns how many leading entries of errs are nil, and the
// first error.
func leadingOK(errs []error) (int, error) {
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return len(errs), nil
}

// fanoutN runs fn for each of n items concurrently, bounded by par,
// waits for all of them, and returns the first error in item order.
func fanoutN(par, n int, fn func(i int) error) error {
	if n == 1 {
		return fn(0)
	}
	if par < 1 {
		par = 1
	}
	errs := make([]error, n)
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fanout is fanoutN over a node list: fn runs once per node, concurrently
// up to par, and the first error in node order wins.
func fanout(par int, nodes []string, fn func(node string) error) error {
	return fanoutN(par, len(nodes), func(i int) error { return fn(nodes[i]) })
}

// ReadAt reads len(p) bytes at offset off. Reads beyond the end of the
// file return io.EOF with a short count. Holes read as zeros.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if err := f.fs.check(); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("memfss: negative read offset")
	}
	want := int64(len(p))
	if want == 0 {
		return 0, nil
	}
	var eof bool
	if off >= f.size {
		return 0, io.EOF
	}
	if off+want > f.size {
		want = f.size - off
		eof = true
	}
	spans, err := f.layout.Spans(off, want)
	if err != nil {
		return 0, err
	}
	// QoS admission: pace the payload through the tenant's share.
	tr := f.fs.newTrace("read", f.path, off, len(p))
	if err := f.fs.qosAdmitRead(tr, f.tenant, want); err != nil {
		tr.abort(err)
		return 0, err
	}
	starts := spanStarts(spans)
	f.fs.stats.stripeReads.Add(int64(len(spans)))
	okSpans, err := f.readSpans(tr, spans, starts, p)
	f.fs.finishTrace(tr, len(spans), err)
	read := 0
	if okSpans > 0 {
		read = starts[okSpans-1] + int(spans[okSpans-1].Length)
	}
	if err != nil {
		return read, err
	}
	f.fs.stats.bytesRead.Add(want)
	if eof {
		return read, io.EOF
	}
	return read, nil
}

// Sync persists the file's size and record to metadata.
func (f *File) Sync() error {
	if f.closed {
		return ErrClosed
	}
	if !f.dirty {
		return nil
	}
	f.rec.Size = f.size
	if err := f.fs.meta.updateRecord(f.path, &fsmeta.Record{File: f.rec}); err != nil {
		return err
	}
	f.dirty = false
	return nil
}

// Close syncs (for writable handles) and invalidates the handle.
func (f *File) Close() error {
	if f.closed {
		return ErrClosed
	}
	var err error
	if f.writable {
		err = f.Sync()
	}
	f.closed = true
	return err
}

// --- stripe engine ---------------------------------------------------------

// targets returns the nodes holding stripe sk's slots under this file's
// snapshot: k+m shards, R copies, or the one primary.
func (f *File) targets(sk string) []string { return f.fs.slots(f.placer, sk, f.n) }

// planReplicated plans one span of a replicated (or unreplicated) stripe:
// every target receives the same VSET under one write ID, and each store
// stamps the copy's next generation. A span covering the stripe replaces
// the value; a narrower one writes its range in place. Placement is always
// computed from the raw stripe key; the store key carries the "data:"
// prefix.
func (f *File) planReplicated(span stripe.Span, data []byte) stripePlan {
	sk := stripe.Key(f.rec.ID, span.Index)
	cmd := spanCmd{idx: span.Index, op: opVSet, key: dataKey(sk), id: newWriteID(),
		off: span.Offset, n: int64(len(data)), data: data}
	if f.coversStripe(span) {
		cmd.off = kvstore.Whole
	}
	return stripePlan{index: span.Index, sk: sk, nodes: f.targets(sk),
		quorum: 1, cmd: cmd}
}

// coversStripe is the whole-stripe rule of both modes: a span from the
// stripe's start through at least its current length needs nothing of the
// old bytes, and its write replaces them.
func (f *File) coversStripe(span stripe.Span) bool {
	return span.Offset == 0 && span.Length >= f.layout.StripeLen(f.size, span.Index)
}

// phaseOutcome names a store op's result for a trace phase.
func phaseOutcome(err error, attempts int) string {
	switch {
	case err != nil:
		return "error"
	case attempts > 1:
		return "retry"
	}
	return "ok"
}

// writeSkips decides, per write target, whether the write should skip it
// because the failure detector judges it Suspect or Down, or because the
// node is fenced off Draining for revocation. It returns nil (skip
// nothing) unless at least need healthy targets remain: stale health
// evidence must never make a write strictly worse than attempting every
// target. The guard applies to the fence too — a drain of the only
// reachable target must not turn writes into silent losses, so the write
// lands on the draining node and the final post-detach sweep moves it.
// need is the write quorum: one copy for replication, k for erasure coding
// (fewer than k new shards is an unreadable write).
func (fs *FileSystem) writeSkips(nodes []string, need int) []bool {
	if len(nodes) <= 1 {
		return nil
	}
	skips := make([]bool, len(nodes))
	healthy := 0
	any := false
	for i, n := range nodes {
		if fs.nodeState(n) == health.Up {
			healthy++
		} else {
			skips[i] = true
			any = true
		}
	}
	if need < 1 {
		need = 1
	}
	if !any || healthy < need {
		return nil
	}
	return skips
}

// writeBase ^ writeSeq yields process-unique write IDs without a lock;
// the random base keeps IDs from colliding across processes, so two
// clients reaching the same stripe generation still write distinct groups.
var (
	writeBase = rand.Uint64()
	writeSeq  atomic.Uint64
)

func newWriteID() uint64 { return writeBase ^ writeSeq.Add(1) }

// planErasure prepares one span of an erasure-coded stripe for shipping:
// k+m shards, each a distinct SET to its own slot's target. A
// partial-stripe update read-modify-writes the whole stripe — inherent
// under erasure coding, because every shard depends on every data byte;
// a span covering the stripe encodes the caller's bytes directly.
// Only the m parity shards are materialised, in pooled buffers the plan
// holds until release: each data shard is sent from where it lies in the
// payload, after the one header all k+m shards share.
//
// Every shard of the write carries the same (generation, write ID) tag:
// generation is the highest generation observed on the stripe plus one,
// so the new write supersedes whatever it read. With quorum k the write
// tolerates up to m shard failures the way replicated writes tolerate
// missing replicas — transport failures degrade the write (repair rebuilds
// the missing shards from the k+ that landed) instead of failing it, and a
// torn stripe is impossible to mis-read because reconstruction only ever
// joins shards sharing one tag.
func (f *File) planErasure(tr *opTrace, span stripe.Span, data []byte) (stripePlan, error) {
	o := f.fs.obs
	sk := stripe.Key(f.rec.ID, span.Index)
	k := f.k
	curLen := f.layout.StripeLen(f.size, span.Index)
	newLen := span.Offset + span.Length
	if curLen > newLen {
		newLen = curLen
	}
	// A span covering the whole stripe needs nothing of the old bytes: the
	// caller's data is the payload and only the generations are fetched.
	// Anything narrower read-modify-writes the stripe in a scratch buffer.
	whole := f.coversStripe(span)
	payload := data
	if !whole {
		payload = make([]byte, newLen)
	}
	var gen uint64
	if curLen > 0 {
		// The gather asks every slot it has reason to (gatherStripe), not
		// just the first k: the new generation must exceed every generation
		// present — including a failed write's orphan shards — or two
		// distinct writes could share a generation and leave the winner
		// ambiguous.
		mode := gatherAll
		if whole {
			mode = gatherHeaders
		}
		g := f.gatherStripe(tr, sk, span.Index, curLen, mode)
		gen = g.maxGen
		if !whole && g.found >= k {
			shards, err := f.gatherData(tr, g)
			if err == nil {
				_, err = f.coder.JoinInto(payload, shards, 0, int(curLen))
			}
			if err != nil {
				o.outcome("write", "error").Inc()
				return stripePlan{}, err
			}
		}
		// Fewer than k shards of any one write: the stripe is a hole, or
		// its bytes are currently unrecoverable. Either way the overwrite
		// proceeds over zeros (matching the pre-generation behavior) and
		// the new, complete generation supersedes the remnants.
	}
	if !whole {
		copy(payload[span.Offset:], data)
	}
	start := time.Now()
	// Each parity buffer is a whole wire shard, the size of a read
	// gather's fetch, so the one pool serves both. The body sits past the
	// header room; the first buffer's header room holds the one header
	// every shard of this write is sent with.
	size := f.coder.ShardSize(len(payload))
	pooled := make([]*[]byte, f.coder.M())
	parity := make([][]byte, len(pooled))
	for i := range pooled {
		pooled[i] = f.fs.shardBuf(erasure.HeaderSize + size)
		parity[i] = (*pooled[i])[erasure.HeaderSize:]
	}
	hdr := (*pooled[0])[:erasure.HeaderSize:erasure.HeaderSize]
	erasure.PutHeader(hdr, gen+1, newWriteID())
	split := f.coder.SplitEncode(payload, parity)
	elapsed := time.Since(start)
	tr.recLeg("ec-encode", elapsed, "ok")
	o.ecEncode.Observe(elapsed)
	shards := make([]spanCmd, 0, k+len(parity))
	for _, bodies := range [...][][]byte{split, parity} {
		for _, body := range bodies {
			shards = append(shards, spanCmd{idx: span.Index, op: opSet, key: shardKey(dataKey(sk), len(shards)),
				n: int64(erasure.HeaderSize + len(body)), hdr: hdr, data: body})
		}
	}
	return stripePlan{index: span.Index, sk: sk, nodes: f.targets(sk), quorum: k,
		shards: shards, parity: pooled}, nil
}

// getInto reads length bytes at offset from a node's key directly into
// dst (len(dst) >= length), throttled — the zero-copy read path: the
// stripe payload lands in the caller's buffer straight off the wire. n is
// how many bytes arrived (short when the stored value ends early); ok is
// false when the key is absent; err reports transport failures. st, when
// non-nil, receives the store op's attempt count and duration.
func (f *File) getInto(nodeID, key string, off, length int64, dst []byte, st *kvstore.OpStat) (int, bool, error) {
	if err := f.fs.conns.throttle(nodeID).Take(length); err != nil {
		return 0, false, err
	}
	cli, err := f.fs.conns.client(nodeID)
	if err != nil {
		return 0, false, err
	}
	return cli.GetRangeIntoStat(key, off, length, dst, st)
}

// readSpan reads one span the burst did not serve into dst (len(dst) ==
// span.Length; bytes past the stripe's end read as zeros) through the one
// gather over the stripe's slots — k+m shards, or R copies as k = 1 — and
// counts the span's outcome: degraded when the gather saw a slot off and
// queued the stripe (noteStripeState). A stripe the repair queue holds
// may have a slot a write behind; if its slots can hold two complete
// writes (2k <= slots, every replicated stripe), every slot is gathered
// and the newest write wins. Otherwise the first k of one write do.
//
// Each slot the gather asks is served by its node or, past a node that
// lacks the key, by its successors (serve). Short of k, a stripe more
// than n-k of whose slots answer "absent" is a hole; fewer than k slots
// of one write is data loss.
func (f *File) readSpan(tr *opTrace, span stripe.Span, dst []byte) (err error) {
	degraded := false
	defer func() {
		outcome := "ok"
		if err != nil {
			outcome = "error"
		} else if degraded {
			outcome = "degraded"
		}
		f.fs.obs.outcome("read", outcome).Inc()
	}()
	sk := stripe.Key(f.rec.ID, span.Index)
	stripeLen := f.layout.StripeLen(f.size, span.Index)
	mode := gatherFirstK
	if f.fs.repairs.holds(sk) && 2*f.k <= f.n {
		mode = gatherAll
	}
	g := f.gatherStripe(tr, sk, span.Index, stripeLen, mode)
	defer g.release(f.fs)
	switch {
	case g.found >= f.k:
	case g.hole(f.k):
		// Even a stripe that had lost its whole failure budget would show
		// a survivor among that many slots: never written, and absence is
		// its state, so nothing is queued.
		clear(dst)
		return nil
	default:
		f.noteStripeState(tr, sk, span.Index, g)
		if g.present == 0 && g.absent == 0 {
			return fmt.Errorf("%w: %s (no reachable slot)", ErrDataLoss, sk)
		}
		return fmt.Errorf("%w: %s (%d of %d slots of one write)", ErrDataLoss, sk, g.found, f.k)
	}
	degraded = f.noteStripeState(tr, sk, span.Index, g)
	// The winner's window: a copy's payload from the span's offset, or
	// the k data shards joined (rebuilt when one is missing).
	n := 0
	if f.coder == nil {
		for i := range g.slots {
			if s := &g.slots[i]; g.won(s) {
				n = copy(dst, s.payload[min(int(span.Offset), len(s.payload)):])
				break
			}
		}
	} else {
		var shards [][]byte
		if shards, err = f.gatherData(tr, g); err == nil {
			n, err = f.coder.JoinInto(dst, shards, int(span.Offset), int(stripeLen))
		}
	}
	clear(dst[n:])
	return err
}

// serve asks for slot i of stripe sk (nodes are its slots) through ask,
// which reports whether a node holds the slot's key: first the slot's
// node, then, once a node lacks the key, the slot's successors (DESIGN
// §5, "One placement rule"). A successor is the node slots gives the
// position with every node asked so far gone, which is where a move sends
// the key. The walk leaves the slot's node when it answers "absent" or
// passes its slots on (fenced, or left), and a successor only when it
// passes its slots on. It returns the node that held the key, or "" and
// the first error on the way: a node that did not answer may hold it.
func (f *File) serve(sk string, i int, nodes []string, ask func(node string) (bool, error)) (string, error) {
	var past []string
	var first error
	for node := nodes[i]; ; {
		held, err := ask(node)
		if held {
			return node, nil
		}
		if first == nil {
			first = err
		}
		passing := f.fs.isDraining(node) || !f.fs.detector.Known(node)
		if !passing && (err != nil || len(past) > 0) {
			return "", first
		}
		past = append(past, node)
		if node = f.fs.slots(f.placer, sk, f.n, past...)[i]; slices.Contains(past, node) {
			return "", first // no node left to ask
		}
	}
}

// ecSlot is one slot's observed state during a gather: a shard, or one
// replica's copy.
type ecSlot struct {
	probed  bool
	present bool
	at      string // the node that held the key: the slot's, or a successor
	// missed is set, possibly after the gather settled, once the slot's
	// own node answered that it lacks the key.
	missed  atomic.Bool
	gen     uint64
	id      uint64
	payload []byte
	err     error
	// raw is the exact stored value, parseable or not (gatherAll only):
	// repair replaces a slot by compare-and-delete on the bytes it read.
	raw []byte
	// buf is the pooled buffer payload points into (read gathers only).
	// The gather owns it from the fetch's delivery until release.
	buf *[]byte
}

// gatherMode selects how much of a stripe gatherStripe fetches.
type gatherMode int

const (
	gatherFirstK  gatherMode = iota // reads: k fetches, hedged; stop at the first write to reach k shards
	gatherAll                       // RMW writes, repair of a damaged stripe: every slot's shard
	gatherHeaders                   // whole-stripe overwrites, repair's health check: every slot's header only
)

// ecGather is the outcome of one concurrent gather over a stripe's slots —
// k+m shards, or R copies (k = 1): per-slot evidence plus the winning
// write — the (generation, write ID) group that first reached k slots,
// preferring higher generations.
type ecGather struct {
	nodes  []string
	slots  []ecSlot
	found  int    // shards of the winning write received; short of k, the largest group of any one write
	gen    uint64 // winning write's generation
	id     uint64 // winning write's ID
	maxGen uint64 // highest generation seen on any shard, any group
	// present counts parsed shards of any generation; absent counts slots
	// a node answered for with no (or an unparseable) shard. Slots the
	// gather abandoned mid-flight count toward neither.
	present int
	absent  int
	mixed   bool // more than one (generation, write ID) observed
}

// release returns the gather's pooled shard buffers; no payload may be
// used afterwards. A fetch the gather abandoned never delivered its
// buffer, so it is not among them: the straggler stays its sole owner.
func (g *ecGather) release(fs *FileSystem) {
	for i := range g.slots {
		if s := &g.slots[i]; s.buf != nil {
			fs.shardBufs.Put(s.buf)
			s.buf, s.payload = nil, nil
		}
	}
}

// shardBuf returns an n-byte buffer from the per-FileSystem shard pool.
func (fs *FileSystem) shardBuf(n int) *[]byte {
	if b, _ := fs.shardBufs.Get().(*[]byte); b != nil && cap(*b) >= n {
		*b = (*b)[:n]
		return b
	}
	b := make([]byte, n)
	return &b
}

// hedgeDelay is how much longer a read gather waits for its stragglers
// before it launches spares, given how long the shards in hand took to
// land: as long again, within [500µs, 5ms]. The basis is this gather's
// own arrivals — a fixed delay fires constantly when many gathers share
// the CPU — and excludes the stragglers themselves.
func hedgeDelay(landed time.Duration) time.Duration {
	return min(max(landed, 500*time.Microsecond), 5*time.Millisecond)
}

// gatherStripe fetches a stripe's shards concurrently, health-ordered.
//
// A read (gatherFirstK) launches exactly k fetches — with every node Up,
// the k data slots, whose payloads concatenate to the stripe without the
// coder — and returns as soon as any one write's shard group reaches k.
// Further slots go out only on evidence: at once when the shards in hand
// plus those in flight can no longer add up to k of one write (a slot
// answered miss, error, unparseable or with another write's shard), and
// otherwise as a hedge — up to ReadSpare spares once hedgeDelay has run
// out on stragglers the spares could cover. That is Hydra's late-binding
// degraded read: a slow or dead node costs the hedge delay, never its
// retry budget. An unsuccessful gather has probed every slot.
//
// gatherAll asks every slot and waits for the answers: the RMW write path
// and repair need every slot's generation, not just the fastest k.
// gatherHeaders is gatherAll fetching only each slot's shard header — all
// a whole-stripe overwrite needs, since it replaces the bytes and only
// has to outbid the generations present, and all repair needs to find a
// stripe healthy. Their first wave is the slots on Up nodes; a slot on a
// node the detector distrusts or a drain fences is fetched only when that
// wave cannot settle the stripe (see the loop), so neither a write nor a
// repair pass spends a dead node's retry budget to learn nothing. These
// two modes are not hedged reads: they feed no hedge counter, hedge leg or
// read latency histogram.
//
// A replicated stripe is the k = 1 case: its R copies are the slots, and
// one copy of the newest write makes it readable. A read the burst did not
// serve gathers it like a shard set (readSpan) — a stripe the repair queue
// holds with gatherAll — and repair inspects it with the same two
// every-slot modes.
func (f *File) gatherStripe(tr *opTrace, sk string, idx, stripeLen int64, mode gatherMode) *ecGather {
	nodes := f.targets(sk)
	k, n := f.k, len(nodes)
	o := f.fs.obs
	probeAll := mode != gatherFirstK
	// Slots are equal-sized Splits of the stripe (a copy is the k = 1
	// split) plus the header; the per-slot estimate meters the throttle
	// before each transfer.
	slotLen := func(n int64) int64 { return (n+int64(k)-1)/int64(k) + erasure.HeaderSize }
	shardEst := slotLen(stripeLen)
	type fetch struct {
		slot int
		at   string // the node that held the slot's key
		data []byte
		buf  *[]byte
		ok   bool
		err  error
	}
	// A stored shard can be longer than shardEst — a writer that never
	// committed its size wrote past it — so a read's fetch and its buffer
	// are sized from the layout's full stripe.
	full := slotLen(f.layout.Size())
	var hdrs []byte
	if mode == gatherHeaders {
		hdrs = make([]byte, n*erasure.HeaderSize)
	}
	g := &ecGather{nodes: nodes, slots: make([]ecSlot, n)}
	// get fetches slot i from the node that serves it (serve), recording
	// each store op it sends.
	get := func(i int) fetch {
		// Every copy of a replicated stripe shares one key.
		key := dataKey(sk)
		if f.coder != nil {
			key = shardKey(key, i)
		}
		r := fetch{slot: i}
		if mode == gatherFirstK {
			r.buf = f.fs.shardBuf(int(full))
		}
		r.at, r.err = f.serve(sk, i, nodes, func(node string) (bool, error) {
			var st kvstore.OpStat
			var got int
			switch mode {
			case gatherFirstK:
				got, r.ok, r.err = f.getShard(node, key, shardEst, *r.buf, &st)
				r.data = (*r.buf)[:got]
			case gatherAll:
				r.data, r.ok, r.err = f.getFull(node, key, shardEst, &st)
			default:
				hdr := hdrs[i*erasure.HeaderSize : (i+1)*erasure.HeaderSize]
				got, r.ok, r.err = f.getInto(node, key, 0, erasure.HeaderSize, hdr, &st)
				r.data = hdr[:got]
			}
			if node == nodes[i] && !r.ok && r.err == nil {
				g.slots[i].missed.Store(true)
			}
			cls := f.fs.conns.class(node)
			if !probeAll {
				o.stripeHist("read", cls).Observe(st.Dur)
			}
			out := "miss"
			if r.err != nil || r.ok {
				out = phaseOutcome(r.err, st.Attempts)
			}
			tr.phaseOp(idx, node, cls, st, out)
			return r.ok, r.err
		})
		r.ok = r.at != ""
		return r
	}
	// Health-ordered slots, stable: detector-Up targets first, so the
	// first wave is shards the evidence says are actually fetchable.
	order := make([]int, 0, n)
	var rest []int
	for i := range nodes {
		if f.fs.nodeState(nodes[i]) != health.Up {
			rest = append(rest, i)
		} else {
			order = append(order, i)
		}
	}
	first, spares := len(order), 0
	if !probeAll {
		first, spares = k, f.fs.ecSpare
	}
	order = append(order, rest...)
	// Buffered to n so abandoned stragglers can always deliver and exit.
	ch := make(chan fetch, n)
	launched, received := 0, 0
	launch := func(c int) {
		for ; c > 0 && launched < n; c-- {
			i := order[launched]
			launched++
			go func() { ch <- get(i) }()
		}
	}
	start := time.Now()
	launch(first)
	// hedge records why this gather went beyond its first wave: a trace
	// leg per launch, the counter once per gather.
	counted := false
	hedge := func(reason string) {
		tr.hedgeLeg(idx, time.Since(start), reason)
		if !counted {
			counted = true
			f.fs.stats.ecHedged[reason].Inc()
		}
	}
	var timer *time.Timer
	var expired <-chan time.Time
	counts := make(map[[2]uint64]int, 1)
	best := 0 // largest shard group of one write so far
	for {
		if received == launched {
			// Only an every-slot gather gets here short of n: its first wave
			// is in. That evidence settles the stripe when a write reached k
			// and no shard of a newer generation was seen; otherwise the
			// winner, or a later write's other shards, may sit on the
			// distrusted nodes, and they are asked after all.
			if launched == n || (g.found >= k && g.maxGen == g.gen) {
				break
			}
			launch(n - launched)
		}
		// The hedge arms once spares could stand in for every fetch still
		// in flight; fewer spares than stragglers cannot complete the read.
		if timer == nil && spares > 0 && launched-received <= spares && launched < n {
			timer = time.NewTimer(hedgeDelay(time.Since(start)))
			expired = timer.C
		}
		var r fetch
		select {
		case r = <-ch:
		case <-expired:
			timer, expired = nil, nil
			c := min(launched-received, spares)
			spares -= c
			hedge("slow")
			launch(c)
			continue
		}
		received++
		s := &g.slots[r.slot]
		s.probed, s.buf, s.at = true, r.buf, r.at
		if mode == gatherAll {
			s.raw = r.data
		}
		reason := "stale"
		switch {
		case r.err != nil:
			s.err = r.err
			reason = "error"
		case !r.ok:
			g.absent++
			reason = "miss"
		default:
			gen, id, payload, perr := erasure.ParseShard(r.data)
			if perr != nil {
				// An unparseable shard is as good as missing; the repair
				// pass rewrites it.
				g.absent++
				reason = "miss"
				break
			}
			s.present = true
			s.gen, s.id, s.payload = gen, id, payload
			g.present++
			if gen > g.maxGen {
				g.maxGen = gen
			}
			counts[[2]uint64{gen, id}]++
			c := counts[[2]uint64{gen, id}]
			best = max(best, c)
			if c >= k {
				if g.found < k || gen > g.gen || (gen == g.gen && id >= g.id) {
					g.gen, g.id, g.found = gen, id, c
				}
			}
		}
		if probeAll {
			continue
		}
		if g.found >= k {
			break // the stripe is readable; stragglers are abandoned
		}
		// No write can reach k from the shards in hand plus those in
		// flight: fetch the shortfall now rather than wait for the rest.
		if need := k - best - (launched - received); need > 0 && launched < n {
			hedge(reason)
			launch(need)
		}
	}
	if timer != nil {
		timer.Stop()
	}
	if g.found < k {
		g.found = best
	}
	g.mixed = len(counts) > 1
	return g
}

// hole reports whether a gather that found no k slots of one write saw a
// stripe never written: no slot present, and more than n-k absent. A
// write reaches k slots before it is acknowledged, so a written stripe
// would show one among them.
func (g *ecGather) hole(k int) bool {
	return g.present == 0 && g.absent > len(g.slots)-k
}

// won reports whether a slot holds a shard of the winning write.
func (g *ecGather) won(s *ecSlot) bool {
	return s.present && s.gen == g.gen && s.id == g.id
}

// winnerShards returns the k+m slot array holding only the winning
// write's shards, ready for reconstruction.
func (g *ecGather) winnerShards() [][]byte {
	shards := make([][]byte, len(g.slots))
	for i := range g.slots {
		if s := &g.slots[i]; g.won(s) {
			shards[i] = s.payload
		}
	}
	return shards
}

// gatherData turns a winning gather into the stripe's k data payloads,
// rebuilding any missing ones from the survivors.
func (f *File) gatherData(tr *opTrace, g *ecGather) ([][]byte, error) {
	k := f.coder.K()
	shards := g.winnerShards()
	for i := 0; i < k; i++ {
		if shards[i] != nil {
			continue
		}
		start := time.Now()
		rec, err := f.coder.Reconstruct(shards)
		elapsed := time.Since(start)
		tr.recLeg("ec-reconstruct", elapsed, phaseOutcome(err, 0))
		if err != nil {
			return nil, err
		}
		f.fs.stats.ecReconstructs.Add(1)
		f.fs.obs.ecRebuild.Observe(elapsed)
		return rec, nil
	}
	return shards[:k], nil
}

// noteStripeState converts gather evidence into repair work. A shard
// missing, unreachable, corrupt, or tagged with a superseded write — or
// a slot the gather never probed whose node the detector distrusts —
// means the stripe's redundancy is (or may be) below k+m, which only a
// repair pass fixes; without this, a read that found its k shards would
// let redundancy silently decay until a full scrub noticed. Returns
// whether anything was off (the read was degraded).
func (f *File) noteStripeState(tr *opTrace, sk string, idx int64, g *ecGather) bool {
	if g.mixed {
		f.fs.stats.ecGenConflicts.Add(1)
	}
	needs := g.mixed
	for i := range g.slots {
		s := &g.slots[i]
		if !s.probed {
			// A slot still walking to its successor when the read settled
			// may be short: its node lacks the key.
			if f.fs.nodeState(g.nodes[i]) != health.Up || s.missed.Load() {
				needs = true
			}
			continue
		}
		if !g.won(s) {
			needs = true
		}
	}
	if needs {
		tr.markDegraded()
		leg := tr.leg("repair-enqueue")
		f.fs.enqueueRepair(f.path, sk, idx, tr.traceID())
		leg.End(nil)
	}
	return needs
}

// getFull reads a whole key from a node, throttled by the expected value
// size *before* the transfer, like every other data path: throttling after
// the fact would let the bytes cross the wire unmetered, and a throttle
// failure would turn an already-successful read into a phantom
// unreachable-node error.
func (f *File) getFull(nodeID, key string, length int64, st *kvstore.OpStat) ([]byte, bool, error) {
	th := f.fs.conns.throttle(nodeID)
	if err := th.Take(length); err != nil {
		return nil, false, err
	}
	cli, err := f.fs.conns.client(nodeID)
	if err != nil {
		return nil, false, err
	}
	v, ok, err := cli.GetStat(key, st)
	meterExcess(th, int64(len(v)), length)
	return v, ok, err
}

// getShard is getFull into buf, the read gather's pooled shard buffer: it
// asks for len(buf) bytes of the key — the largest shard the layout can
// store — and reports how many arrived.
func (f *File) getShard(nodeID, key string, est int64, buf []byte, st *kvstore.OpStat) (int, bool, error) {
	th := f.fs.conns.throttle(nodeID)
	if err := th.Take(est); err != nil {
		return 0, false, err
	}
	cli, err := f.fs.conns.client(nodeID)
	if err != nil {
		return 0, false, err
	}
	n, ok, err := cli.GetRangeIntoStat(key, 0, int64(len(buf)), buf, st)
	meterExcess(th, int64(n), est)
	return n, ok, err
}

// meterExcess charges a throttle for what a shard fetch moved beyond the
// estimate metered before it: the shards of a stripe that Truncate
// shortened in metadata are longer than the current stripe length says.
// The bytes have already crossed the wire, so a closed throttle is not an
// error here.
func meterExcess(th *container.Throttle, got, est int64) {
	if got > est {
		_ = th.Take(got - est)
	}
}
