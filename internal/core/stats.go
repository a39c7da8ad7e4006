package core

import "memfss/internal/obs"

// fsStats instruments the data path. The counters are registered series
// on the FileSystem's registry, so /metrics and Counters() read the same
// numbers — one metrics system, not two.
type fsStats struct {
	bytesWritten         *obs.Counter
	bytesRead            *obs.Counter
	stripeWrites         *obs.Counter
	stripeReads          *obs.Counter
	degradedWrites       *obs.Counter
	skippedReplicaWrites *obs.Counter
	fencedWrites         *obs.Counter
	noSpaceWrites        *obs.Counter
	deferredDeletes      *obs.Counter
	ecReconstructs       *obs.Counter
	ecGenConflicts       *obs.Counter
	// ecHedged counts read gathers, erasure-coded or replicated (k = 1),
	// that launched a fetch beyond their first k, by the reason of the
	// first such launch.
	ecHedged map[string]*obs.Counter
}

// hedgeReasons are the reason label values of ecHedged: a first-wave slot
// answered no (or an unparseable) shard, failed, or held another write's
// shard, or a straggler outlasted the hedge delay.
var hedgeReasons = [...]string{"miss", "error", "stale", "slow"}

// newFSStats registers the data-path counters on reg.
func newFSStats(reg *obs.Registry) fsStats {
	hedged := make(map[string]*obs.Counter, len(hedgeReasons))
	for _, reason := range hedgeReasons {
		hedged[reason] = reg.Counter("memfss_fs_ec_hedged_reads_total",
			"Stripe read gathers, erasure-coded or replicated (k = 1), that fetched beyond their first k slots, by what made them.", obs.L("reason", reason))
	}
	return fsStats{
		bytesWritten: reg.Counter("memfss_fs_bytes_total",
			"Payload bytes moved through the file-system client.", obs.L("op", "write")),
		bytesRead: reg.Counter("memfss_fs_bytes_total",
			"Payload bytes moved through the file-system client.", obs.L("op", "read")),
		stripeWrites: reg.Counter("memfss_fs_stripe_ops_total",
			"Span-level store operations.", obs.L("op", "write")),
		stripeReads: reg.Counter("memfss_fs_stripe_ops_total",
			"Span-level store operations.", obs.L("op", "read")),
		degradedWrites: reg.Counter("memfss_fs_degraded_writes_total",
			"Span writes, replicated or erasure-coded, that succeeded with fewer than all copies or shards, or with copies a write apart.", nil),
		skippedReplicaWrites: reg.Counter("memfss_fs_skipped_replica_writes_total",
			"Write targets, replicas or shards, skipped because the failure detector judged them Suspect or Down.", nil),
		fencedWrites: reg.Counter("memfss_fs_fenced_replica_writes_total",
			"Write targets, replicas or shards, skipped because the node is draining for revocation.", nil),
		noSpaceWrites: reg.Counter("memfss_fs_no_space_writes_total",
			"Span writes rejected because a store was over its memory cap.", nil),
		deferredDeletes: reg.Counter("memfss_fs_deferred_deletes_total",
			"Per-node stripe deletions skipped because the node was unreachable; the stale keys are orphans under a dead file ID.", nil),
		ecReconstructs: reg.Counter("memfss_fs_ec_reconstructs_total",
			"Erasure stripe reads served by Reed-Solomon reconstruction (a data shard missing, stale, or slower than the hedge).", nil),
		ecGenConflicts: reg.Counter("memfss_fs_ec_generation_conflicts_total",
			"Stripe inspections, erasure-coded or replicated, that observed slots from more than one write.", nil),
		ecHedged: hedged,
	}
}

// Counters is a snapshot of a FileSystem's data-path activity.
type Counters struct {
	// BytesWritten / BytesRead count payload bytes through the client.
	BytesWritten int64
	BytesRead    int64
	// StripeWrites / StripeReads count span-level store operations.
	StripeWrites int64
	StripeReads  int64
	// DeepProbes is always 0: reads no longer walk the probe order (a
	// slot whose node lacks the key is served by its successor). The
	// field stays while the benchmark harness reads core.deep_probes.
	DeepProbes int64
	// DegradedWrites counts span writes, in both redundancy modes, that
	// succeeded with fewer than all copies or shards (at least the quorum
	// landed — one copy, or k shards; the rest failed with transport errors
	// or were skipped) or whose copies stamped different generations.
	// Nonzero means some stripes are below full redundancy until a repair
	// or rewrite.
	DegradedWrites int64
	// SkippedReplicaWrites counts write targets — replicas or erasure
	// shards — a write skipped outright because the failure detector judged
	// them Suspect or Down: each skip is a full retry budget (MaxAttempts
	// connections plus backoff) the data path did not burn against a dead
	// node.
	SkippedReplicaWrites int64
	// FencedWrites counts write targets — replicas or erasure shards —
	// skipped because the node was fenced off Draining for revocation:
	// write traffic the drain kept off the departing node.
	FencedWrites int64
	// NoSpaceWrites counts span writes rejected by a store's memory cap
	// (the typed ErrNoSpace classification). These fail fast — a full
	// store fails identically on every retry — so a nonzero value means
	// capacity, not connectivity, is the bottleneck.
	NoSpaceWrites int64
	// DeferredDeletes counts per-node stripe deletions skipped because
	// the node was unreachable when a file was removed or truncated. The
	// namespace entry is already gone, so a delete must not fail an
	// otherwise-survivable operation over a dead node; the stale keys are
	// orphans under a dead file ID — unreadable, surfaced by Fsck's
	// orphan census until the store reclaims them.
	DeferredDeletes int64
	// ECReconstructs counts erasure stripe reads that had to rebuild a
	// data shard via Reed-Solomon reconstruction — each one is a read
	// whose data shard was missing, stale, or slower than the hedge, and
	// that still returned correct bytes. Healthy reads join the k data
	// shards and never count here.
	ECReconstructs int64
	// ECHedgedReads counts read gathers, in both redundancy modes (a
	// replicated stripe is the k = 1 gather a read falls back to), that
	// fetched beyond their first k slots (memfss_fs_ec_hedged_reads_total
	// splits it by reason: miss, error, stale, slow). With every node Up
	// only these erasure reads can reconstruct: the first k are the data
	// shards.
	ECHedgedReads int64
	// ECGenConflicts counts stripe inspections, in both redundancy modes,
	// that observed slots from more than one write — the leftovers of a
	// torn or superseded erasure write, or a replica that missed a write,
	// converged by the repair pass. Reads never mix or serve them; this
	// only measures how often the mix was seen.
	ECGenConflicts int64
	// StoreOps / StoreAttempts count store operations (commands and
	// pipeline bursts) and the connection attempts they consumed, summed
	// over every node client. StoreAttempts-StoreOps is the retry count;
	// the retry policy bounds StoreAttempts <= MaxAttempts*StoreOps.
	StoreOps      int64
	StoreAttempts int64
}

// Counters returns a snapshot of the file system's activity counters.
func (fs *FileSystem) Counters() Counters {
	ops, attempts := fs.conns.opTotals()
	var hedged int64
	for _, c := range fs.stats.ecHedged {
		hedged += c.Value()
	}
	return Counters{
		BytesWritten:         fs.stats.bytesWritten.Value(),
		BytesRead:            fs.stats.bytesRead.Value(),
		StripeWrites:         fs.stats.stripeWrites.Value(),
		StripeReads:          fs.stats.stripeReads.Value(),
		DegradedWrites:       fs.stats.degradedWrites.Value(),
		SkippedReplicaWrites: fs.stats.skippedReplicaWrites.Value(),
		FencedWrites:         fs.stats.fencedWrites.Value(),
		NoSpaceWrites:        fs.stats.noSpaceWrites.Value(),
		DeferredDeletes:      fs.stats.deferredDeletes.Value(),
		ECReconstructs:       fs.stats.ecReconstructs.Value(),
		ECHedgedReads:        hedged,
		ECGenConflicts:       fs.stats.ecGenConflicts.Value(),
		StoreOps:             ops,
		StoreAttempts:        attempts,
	}
}
