package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"memfss/internal/erasure"
	"memfss/internal/fsmeta"
	"memfss/internal/health"
	"memfss/internal/hrw"
	"memfss/internal/kvstore"
	"memfss/internal/obs"
	"memfss/internal/obs/trace"
	"memfss/internal/qos"
	"memfss/internal/stripe"
)

// FileSystem is a MemFSS client, the library equivalent of the FUSE mount
// on an own node (paper §III-C). It is safe for concurrent use; individual
// File handles are not.
type FileSystem struct {
	mu      sync.RWMutex
	classes []ClassSpec

	cfg       Config
	layout    stripe.Layout
	conns     *connPool
	meta      *metaService
	ioPar     int
	pipeDepth int
	ecSpare   int
	stats     fsStats
	closed    bool
	// shardBufs pools the erasure read gather's shard fetch buffers
	// (*[]byte, one wire shard of a full stripe each).
	shardBufs sync.Pool

	// obs is the FileSystem-level telemetry bundle on the registry (the
	// caller's or a private one; obs.reg).
	obs *fsObs

	// detector is the node-health state machine; its Draining overlay is
	// the revocation write fence. prober is its active half (nil with a
	// negative Health.ProbeInterval); repairs is the targeted repair queue
	// (nil with Repair.Disable).
	detector *health.Detector
	prober   *health.Prober
	repairs  *repairQueue

	// healthEvStop/healthEvCancel tear down the flight-recorder pump that
	// journals detector state transitions. Subscribe's cancel only
	// unsubscribes — it never closes the channel — so the pump selects on
	// the stop channel.
	healthEvStop   chan struct{}
	healthEvCancel func()

	// reclaims holds one reclamation record per victim node (reclaim.go);
	// monitor is the last Monitor started; while it runs it logs every
	// background run.
	reclaimMu sync.Mutex
	reclaims  map[string]*reclaim
	monitor   *Monitor

	// leases is the lease book Revoke gives notice through.
	leases *qos.Broker
}

// New connects to the stores described by cfg and returns a FileSystem.
// The stores must already be running; New verifies reachability of the own
// class (metadata cannot work without it) but tolerates unreachable
// victims.
func New(cfg Config) (*FileSystem, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	layout, err := cfg.layoutFor()
	if err != nil {
		return nil, err
	}
	// Only validation (unique class names): files place through snapshots.
	if _, err := hrw.NewPlacer(placerClasses(cfg.Classes)...); err != nil {
		return nil, err
	}
	retry := cfg.Retry
	if retry.OpTimeout == 0 {
		retry.OpTimeout = cfg.DialTimeout
	}
	conns := newConnPool(cfg.Password, cfg.DialTimeout, retry)
	reg := cfg.Obs.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	conns.metrics = reg
	detector := health.New(health.Options{
		SuspectAfter: cfg.Health.SuspectAfter,
		DownAfter:    cfg.Health.DownAfter,
		Metrics:      reg,
	})
	// Passive evidence: every client operation's final outcome flows
	// here via the kvstore Observer. Only transport-class failures
	// count against a node — a store-level error proves it is alive.
	conns.report = func(nodeID string, err error) {
		if err == nil || !isUnavailable(err) {
			detector.ReportSuccess(nodeID)
		} else {
			detector.ReportFailure(nodeID)
		}
	}
	classes := make([]ClassSpec, len(cfg.Classes))
	copy(classes, cfg.Classes)
	for _, cls := range classes {
		if err := conns.add(cls); err != nil {
			conns.closeAll()
			return nil, err
		}
		for _, n := range cls.Nodes {
			detector.Register(n.ID)
		}
	}
	ownIDs := make([]string, len(classes[0].Nodes))
	for i, n := range classes[0].Nodes {
		ownIDs[i] = n.ID
	}
	ioPar := cfg.IOParallelism
	if ioPar == 0 {
		ioPar = 8
	}
	pipeDepth := cfg.PipelineDepth
	if pipeDepth == 0 {
		pipeDepth = defaultPipelineDepth
	}
	ecSpare := cfg.Redundancy.ReadSpare
	if ecSpare == 0 {
		ecSpare = 1
	} else if ecSpare < 0 {
		ecSpare = 0
	}
	fs := &FileSystem{
		classes:   classes,
		cfg:       cfg,
		layout:    layout,
		conns:     conns,
		meta:      newMetaService(ownIDs, conns),
		ioPar:     ioPar,
		pipeDepth: pipeDepth,
		ecSpare:   ecSpare,
		stats:     newFSStats(reg),
		detector:  detector,
		obs:       newFSObs(reg, cfg.Obs),
		reclaims:  make(map[string]*reclaim),
	}
	fs.leases = qos.NewBroker(reg, fs.obs.journal, fs.kick)
	reg.Gauge("memfss_fs_draining_nodes",
		"Nodes currently fenced for revocation drain.", nil,
		func() float64 { return float64(len(fs.Draining())) })
	for _, id := range ownIDs {
		cli, err := conns.client(id)
		if err != nil {
			fs.Close()
			return nil, err
		}
		if err := cli.Ping(); err != nil {
			fs.Close()
			return nil, fmt.Errorf("core: own node %s unreachable: %w", id, err)
		}
	}
	if cfg.Health.ProbeInterval >= 0 {
		fs.prober = health.NewProber(detector, fs.probeNode, health.ProberOptions{
			Interval: cfg.Health.ProbeInterval,
		})
		fs.prober.Start()
	}
	ch, cancel := detector.Subscribe(64)
	fs.healthEvStop = make(chan struct{})
	fs.healthEvCancel = cancel
	go fs.pumpHealthEvents(ch)
	if !cfg.Repair.Disable {
		fs.repairs = newRepairQueue(fs, cfg.Repair)
	}
	return fs, nil
}

// pumpHealthEvents copies detector state transitions into the flight
// recorder, linking each to the trace that last saw the node fail (the
// operation whose failed store op fed the detector the evidence).
func (fs *FileSystem) pumpHealthEvents(ch <-chan health.Event) {
	for {
		select {
		case ev := <-ch:
			fs.obs.note("health", ev.Node,
				fmt.Sprintf("%s -> %s", ev.From, ev.To),
				fs.obs.lastNodeTrace(ev.Node))
		case <-fs.healthEvStop:
			return
		}
	}
}

// Traces returns the retained-trace store behind /debug/traces.
func (fs *FileSystem) Traces() *trace.Store { return fs.obs.tracer.Store() }

// Events returns the cluster flight recorder behind /debug/events.
func (fs *FileSystem) Events() *trace.Journal { return fs.obs.journal }

// probeNode is the active-probe primitive: one PING attempt, no retries,
// outcome reported to the detector by the prober (PingOnce deliberately
// bypasses the Observer so probe evidence is not double-counted).
func (fs *FileSystem) probeNode(nodeID string) error {
	cli, err := fs.conns.client(nodeID)
	if err != nil {
		return err
	}
	return cli.PingOnce()
}

// Health returns the failure detector's per-node snapshot.
func (fs *FileSystem) Health() map[string]health.NodeHealth {
	return fs.detector.Snapshot()
}

// ProbeHealth runs one synchronous probe round (every registered node,
// in parallel) and returns the resulting snapshot. It gives operators and
// tests a fresh view without waiting for the probe cadence.
func (fs *FileSystem) ProbeHealth() map[string]health.NodeHealth {
	if fs.prober != nil {
		fs.prober.ProbeOnce()
	}
	return fs.detector.Snapshot()
}

// nodeState reports a node's detector state. A node fenced for revocation
// reports Draining whatever the evidence says: the fence is a correctness
// mechanism (the post-drain flush must not race live writes), and the
// detector's Draining overlay is the one place it lives.
func (fs *FileSystem) nodeState(nodeID string) health.State {
	return fs.detector.State(nodeID)
}

func (fs *FileSystem) isDraining(nodeID string) bool {
	return fs.nodeState(nodeID) == health.Draining
}

// Draining lists the nodes currently fenced for revocation, sorted.
func (fs *FileSystem) Draining() []string {
	var out []string
	for n, h := range fs.detector.Snapshot() {
		if h.State == health.Draining {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Close releases every store connection. Open File handles become
// unusable.
func (fs *FileSystem) Close() error {
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		return nil
	}
	fs.closed = true
	fs.mu.Unlock()
	if fs.prober != nil {
		fs.prober.Stop()
	}
	if fs.healthEvCancel != nil {
		fs.healthEvCancel()
		close(fs.healthEvStop)
	}
	if q := fs.repairs; q != nil {
		close(q.stopCh)
		q.wg.Wait()
	}
	fs.conns.closeAll()
	return nil
}

func (fs *FileSystem) check() error {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if fs.closed {
		return ErrClosed
	}
	return nil
}

// resolve is the preamble of every call that takes a path: the file
// system must be open and the path must clean to an absolute one.
func (fs *FileSystem) resolve(path string) (string, error) {
	if err := fs.check(); err != nil {
		return "", err
	}
	return fsmeta.Clean(path)
}

// snapshot returns the current classes as a metadata snapshot, recorded
// into each new file so its placement stays resolvable after scavenging
// changes the live classes (paper §III-D).
func (fs *FileSystem) snapshot() []fsmeta.ClassSnapshot {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	out := make([]fsmeta.ClassSnapshot, len(fs.classes))
	for i, cs := range fs.classes {
		nodes := make([]string, len(cs.Nodes))
		for j, n := range cs.Nodes {
			nodes[j] = n.ID
		}
		out[i] = fsmeta.ClassSnapshot{Name: cs.Name, Weight: cs.Weight, Nodes: nodes}
	}
	return out
}

// slots is the one placement rule: readers, writers, repair and the
// mover find a stripe's n slots here (DESIGN §5). They are the snapshot's
// HRW rank order, except that a node that has left — unknown to the
// detector (released, or never configured here), or named in gone — keeps
// its position and passes its slot to the next node of the probe order
// that is still known and holds no slot. That node is the position's
// successor (File.serve). A class narrower than n (a release shrank it
// before the snapshot was taken) has positions none of its nodes fills;
// they go to the probe order first, as if their nodes had left.
func (fs *FileSystem) slots(pl *hrw.Placer, sk string, n int, gone ...string) []string {
	nodes := pl.PlaceK(sk, n)
	if len(nodes) < n {
		for _, c := range pl.ProbeOrder(sk) {
			if len(nodes) < n && !slices.Contains(nodes, c) {
				nodes = append(nodes, c)
			}
		}
	}
	left := func(node string) bool { return slices.Contains(gone, node) || !fs.detector.Known(node) }
	if !slices.ContainsFunc(nodes, left) {
		return nodes
	}
	probe := pl.ProbeOrder(sk)
	for i, node := range nodes {
		if !left(node) {
			continue
		}
		for _, c := range probe {
			if !left(c) && !slices.Contains(nodes, c) {
				nodes[i] = c
				break
			}
		}
	}
	return nodes
}

// --- namespace operations -------------------------------------------------

// Mkdir creates a directory; the parent must exist.
func (fs *FileSystem) Mkdir(path string) error {
	p, err := fs.resolve(path)
	if err != nil {
		return err
	}
	return fs.meta.createEntry(p, &fsmeta.Record{Directory: &fsmeta.DirRecord{Dir: true}})
}

// MkdirAll creates a directory and any missing parents; existing
// directories are not an error.
func (fs *FileSystem) MkdirAll(path string) error {
	p, err := fs.resolve(path)
	if err != nil {
		return err
	}
	return fs.mkdirAll(p)
}

func (fs *FileSystem) mkdirAll(p string) error {
	if p == "/" {
		return nil
	}
	rec, err := fs.meta.statRecord(p)
	if err == nil {
		if rec.IsDir() {
			return nil
		}
		return fmt.Errorf("%w: %s", ErrNotDir, p)
	}
	if err := fs.mkdirAll(fsmeta.Parent(p)); err != nil {
		return err
	}
	err = fs.meta.createEntry(p, &fsmeta.Record{Directory: &fsmeta.DirRecord{Dir: true}})
	if err != nil && isExist(err) {
		return nil // lost a benign race with a concurrent MkdirAll
	}
	return err
}

// Stat describes the entry at path.
func (fs *FileSystem) Stat(path string) (EntryInfo, error) {
	p, err := fs.resolve(path)
	if err != nil {
		return EntryInfo{}, err
	}
	rec, err := fs.meta.statRecord(p)
	if err != nil {
		return EntryInfo{}, err
	}
	e := EntryInfo{Name: fsmeta.Base(p), Path: p, IsDir: rec.IsDir()}
	if rec.File != nil {
		e.Size = rec.File.Size
	}
	return e, nil
}

// ReadDir lists the directory at path, sorted by name.
func (fs *FileSystem) ReadDir(path string) ([]EntryInfo, error) {
	p, err := fs.resolve(path)
	if err != nil {
		return nil, err
	}
	return fs.meta.readDir(p)
}

// Remove deletes a file (and its stripes) or an empty directory.
func (fs *FileSystem) Remove(path string) error {
	p, err := fs.resolve(path)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("%w: cannot remove /", ErrNotEmpty)
	}
	rec, err := fs.meta.statRecord(p)
	if err != nil {
		return err
	}
	return fs.dropEntry(p, rec)
}

// RemoveAll deletes path and, for directories, everything beneath it.
// A missing path is not an error.
func (fs *FileSystem) RemoveAll(path string) error {
	p, err := fs.resolve(path)
	if err != nil {
		return err
	}
	return fs.removeAll(p)
}

func (fs *FileSystem) removeAll(p string) error {
	rec, err := fs.meta.statRecord(p)
	if err != nil {
		if isNotExist(err) {
			return nil
		}
		return err
	}
	if rec.IsDir() {
		children, err := fs.meta.readDir(p)
		if err != nil {
			return err
		}
		for _, c := range children {
			if err := fs.removeAll(c.Path); err != nil {
				return err
			}
		}
		if p == "/" {
			return nil
		}
	}
	return fs.dropEntry(p, rec)
}

// dropEntry is the one way an entry leaves the namespace for good. It
// takes the record its caller has just read: a directory must be empty; a
// file gives up its entry, its file-ID index, its quota charge and its
// stripes, in that order, so a failure part-way leaves stripes nothing
// names (orphans for Fsck's census), never an entry without its data.
func (fs *FileSystem) dropEntry(p string, rec *fsmeta.Record) error {
	if rec.IsDir() {
		if err := fs.meta.requireEmpty(p); err != nil {
			return err
		}
	}
	if err := fs.meta.unlink(p, rec); err != nil {
		return err
	}
	if rec.File == nil {
		return nil
	}
	if err := fs.meta.dropFileID(rec.File.ID); err != nil {
		return err
	}
	fs.qosCreditPath(p, rec.File.Size)
	return fs.deleteStripeRange(rec.File, 0, rec.File.Size, true)
}

// Rename moves a file or directory subtree. Data never moves (stripe keys
// derive from the immutable file ID). A destination equal to or inside
// the source subtree is rejected before any metadata is touched.
func (fs *FileSystem) Rename(oldPath, newPath string) error {
	op, err := fs.resolve(oldPath)
	if err != nil {
		return err
	}
	np, err := fs.resolve(newPath)
	if err != nil {
		return err
	}
	if np == op || strings.HasPrefix(np, op+"/") {
		return fmt.Errorf("%w: rename %s to %s", ErrInvalid, op, np)
	}
	return fs.meta.rename(op, np)
}

// --- file operations -------------------------------------------------------

// Create creates (or truncates) the file at path and returns a writable
// handle positioned at offset 0.
func (fs *FileSystem) Create(path string) (*File, error) {
	p, err := fs.resolve(path)
	if err != nil {
		return nil, err
	}
	if old, err := fs.meta.statRecord(p); err == nil {
		if old.IsDir() {
			return nil, fmt.Errorf("%w: %s", ErrIsDir, p)
		}
		if err := fs.dropEntry(p, old); err != nil {
			return nil, err
		}
	} else if !isNotExist(err) {
		return nil, err
	}
	id, err := fs.meta.allocFileID()
	if err != nil {
		return nil, err
	}
	rec := &fsmeta.FileRecord{
		ID:         id,
		StripeSize: fs.layout.Size(),
		Classes:    fs.snapshot(),
	}
	switch fs.cfg.Redundancy.Mode {
	case RedundancyReplicate:
		rec.Replicas = fs.cfg.Redundancy.Replicas
	case RedundancyErasure:
		rec.DataShards = fs.cfg.Redundancy.DataShards
		rec.ParityShards = fs.cfg.Redundancy.ParityShards
	default:
		rec.Replicas = 1
	}
	// The ID index goes in before the entry is linked: once the path exists
	// the mover must be able to resolve the file's stripes, or an evacuation
	// flushes them as orphans. An index whose entry never appears is inert
	// (the mover stats the path and finds nothing).
	if err := fs.meta.indexFileID(id, p); err != nil {
		return nil, err
	}
	if err := fs.meta.createEntry(p, &fsmeta.Record{File: rec}); err != nil {
		_ = fs.meta.dropFileID(id) // best effort: a leftover index is inert
		return nil, err
	}
	return fs.newFile(p, rec, true)
}

// Open returns a read-only handle on an existing file.
func (fs *FileSystem) Open(path string) (*File, error) {
	p, err := fs.resolve(path)
	if err != nil {
		return nil, err
	}
	rec, err := fs.meta.statRecord(p)
	if err != nil {
		return nil, err
	}
	if rec.IsDir() {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	return fs.newFile(p, rec.File, false)
}

func (fs *FileSystem) newFile(path string, rec *fsmeta.FileRecord, writable bool) (*File, error) {
	// The placer the file was written under (paper §III-D).
	classes := make([]hrw.Class, len(rec.Classes))
	for i, s := range rec.Classes {
		classes[i] = hrw.Class{Name: s.Name, Weight: s.Weight, Nodes: s.Nodes}
	}
	pl, err := hrw.NewPlacer(classes...)
	if err != nil {
		return nil, err
	}
	layout, err := stripe.NewLayout(rec.StripeSize)
	if err != nil {
		return nil, err
	}
	var coder *erasure.Coder
	if rec.DataShards > 0 {
		coder, err = erasure.NewCoder(rec.DataShards, rec.ParityShards)
		if err != nil {
			return nil, err
		}
	}
	return &File{
		fs:       fs,
		path:     path,
		rec:      rec,
		placer:   pl,
		layout:   layout,
		coder:    coder,
		k:        max(rec.DataShards, 1),
		n:        max(rec.Replicas, rec.DataShards+rec.ParityShards, 1),
		size:     rec.Size,
		writable: writable,
		tenant:   fs.tenants().ResolveTenant(path),
	}, nil
}

// WriteFile creates path (truncating any previous file) with the given
// contents.
func (fs *FileSystem) WriteFile(path string, data []byte) error {
	f, err := fs.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile returns the full contents of the file at path.
func (fs *FileSystem) ReadFile(path string) ([]byte, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, f.Size())
	if _, err := f.ReadAt(buf, 0); err != nil {
		return nil, err
	}
	return buf, nil
}

// delBatch is how many keys one DEL command carries.
const delBatch = 512

// deleteStripeRange deletes the stripes (or shard sets) a file of `to`
// bytes has and a file of `from` bytes has not, fanned out to every node
// of the record's placement snapshot as multi-key DELs, PipelineDepth
// commands per burst. A node the pool no longer knows was evacuated — its
// store drained and flushed — and is skipped. A node that cannot be
// reached fails the call, unless idDead says the file ID is already
// unlinked (remove, overwrite): then nothing can name the leftovers again,
// so they are orphans for Fsck's census, counted in
// memfss_fs_deferred_deletes_total, and the outage must not fail the user.
func (fs *FileSystem) deleteStripeRange(rec *fsmeta.FileRecord, from, to int64, idDead bool) error {
	layout, err := stripe.NewLayout(rec.StripeSize)
	if err != nil {
		return err
	}
	var keys []string
	for idx, end := layout.Count(from), layout.Count(to); idx < end; idx++ {
		base := dataKey(stripe.Key(rec.ID, idx))
		if rec.DataShards == 0 {
			keys = append(keys, base)
			continue
		}
		for s := 0; s < rec.DataShards+rec.ParityShards; s++ {
			keys = append(keys, shardKey(base, s))
		}
	}
	if len(keys) == 0 {
		return nil
	}
	var nodes []string
	for _, snap := range rec.Classes {
		nodes = append(nodes, snap.Nodes...)
	}
	return fanout(fs.ioPar, nodes, func(nodeID string) error {
		cli, err := fs.conns.client(nodeID)
		if err != nil {
			return nil
		}
		err = delKeys(cli.Pipeline(), keys, fs.pipeDepth)
		if idDead && isUnavailable(err) {
			fs.stats.deferredDeletes.Add(1)
			return nil
		}
		return err
	})
}

// delKeys deletes keys through pl, delBatch keys per DEL and depth DELs
// per burst.
func delKeys(pl *kvstore.Pipeline, keys []string, depth int) error {
	for len(keys) > 0 {
		n := min(delBatch, len(keys))
		pl.Del(keys[:n]...)
		keys = keys[n:]
		if pl.Len() < depth && len(keys) > 0 {
			continue
		}
		replies, err := pl.Run()
		if err != nil {
			return err
		}
		for _, r := range replies {
			if err := r.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// StoreStats polls every node's store and returns stats keyed by node ID.
// Unreachable nodes are omitted.
func (fs *FileSystem) StoreStats() map[string]StoreStat {
	fs.mu.RLock()
	classes := fs.classes
	fs.mu.RUnlock()
	out := make(map[string]StoreStat)
	for _, cls := range classes {
		for _, n := range cls.Nodes {
			cli, err := fs.conns.client(n.ID)
			if err != nil {
				continue
			}
			st, err := cli.Info()
			if err != nil {
				continue
			}
			out[n.ID] = StoreStat{
				Class:     cls.Name,
				BytesUsed: st.BytesUsed,
				MaxMemory: st.MaxMemory,
				NumKeys:   st.NumKeys + st.NumSets,
				Pressure:  st.Pressure,
			}
		}
	}
	return out
}

// StoreStat summarizes one node's store.
type StoreStat struct {
	Class     string
	BytesUsed int64
	MaxMemory int64
	NumKeys   int
	Pressure  bool
}

// Classes returns the current class specs (a copy).
func (fs *FileSystem) Classes() []ClassSpec {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	out := make([]ClassSpec, len(fs.classes))
	copy(out, fs.classes)
	return out
}

func isNotExist(err error) bool { return errors.Is(err, ErrNotExist) }
func isExist(err error) bool    { return errors.Is(err, ErrExist) }
