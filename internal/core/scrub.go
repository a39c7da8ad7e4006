package core

import (
	"fmt"
	"slices"

	"memfss/internal/erasure"
	"memfss/internal/health"
	"memfss/internal/stripe"
)

// ScrubReport summarizes an anti-entropy pass.
type ScrubReport struct {
	// Files is the number of files examined.
	Files int
	// StripesChecked counts stripe (or shard-set) inspections.
	StripesChecked int
	// Restored counts replicas/shards rewritten to their proper node.
	Restored int
	// Unrepairable lists "path#stripe: reason" units with too few
	// surviving copies/shards to restore.
	Unrepairable []string
	// Deferred lists "path#stripe" units whose check or restore was
	// skipped because a placement target is Down, Suspect, or unreachable:
	// they are not damaged as far as anyone can tell, but redundancy could
	// not be verified or restored until the node returns. The repair
	// queue's overflow debt stays armed while a Scrub defers work.
	Deferred []string
}

// fixOutcome is the result of inspecting/repairing one stripe, shared by
// Scrub, RepairFile, and the background repair queue.
type fixOutcome struct {
	// restored names what each rewritten copy or shard replaced: "missing",
	// "stale" or "unparseable".
	restored []string
	// pending lists registered targets that could not be checked or
	// written (detector says Suspect/Down, or the operation failed with a
	// transport error): retry once they recover.
	pending []string
	// reason, when non-empty, explains why the stripe is unrepairable (no
	// surviving source anywhere reachable).
	reason string
}

// Scrub walks every file and proactively restores missing redundancy:
// replicated stripes are re-copied from a surviving replica, erasure-coded
// stripes have missing shards reconstructed and rewritten. Lazy movement
// (paper §V-C) repairs what reads happen to touch, and the targeted repair
// queue handles stripes the data path saw degrade; Scrub is the
// anti-entropy complement that repairs everything else — run it after a
// node loss so the next failure finds full redundancy.
//
// Restores use SETNX so a scrub racing live writers can only fill a hole,
// never clobber a newer value. A target the failure detector distrusts is
// never written and its stripe reported in Deferred; it is not even asked,
// unless an erasure-coded stripe's Up targets cannot settle which write is
// current. Stripes with no surviving source are reported as unrepairable
// with the reason.
func (fs *FileSystem) Scrub() (*ScrubReport, error) {
	rep := &ScrubReport{}
	err := fs.Walk("/", func(e EntryInfo) error {
		if e.IsDir {
			return nil
		}
		rep.Files++
		rec, err := fs.meta.statRecord(e.Path)
		if err != nil {
			if isNotExist(err) {
				return nil // lost a benign race with a concurrent remove
			}
			rep.Unrepairable = append(rep.Unrepairable,
				fmt.Sprintf("%s#meta: %v", e.Path, err))
			return nil
		}
		if rec.File == nil {
			return nil // became a directory: nothing to scrub
		}
		f, err := fs.newFile(e.Path, rec.File, false)
		if err != nil {
			return err
		}
		f.scrub(rep)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// RepairFile runs the scrub pass over a single file — the targeted
// operator verb behind `memfsctl repair`.
func (fs *FileSystem) RepairFile(path string) (*ScrubReport, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	rep := &ScrubReport{Files: 1}
	f.scrub(rep)
	return rep, nil
}

// scrub inspects every stripe of the file through a read-only handle and
// adds what it found and fixed to rep.
func (f *File) scrub(rep *ScrubReport) {
	count := f.layout.Count(f.size)
	for idx := int64(0); idx < count; idx++ {
		rep.StripesChecked++
		f.fs.obs.scrubChk.Inc()
		sk := stripe.Key(f.rec.ID, idx)
		out := f.fixStripe(idx)
		rep.Restored += len(out.restored)
		f.fs.obs.scrubRest.Add(int64(len(out.restored)))
		if out.reason != "" {
			rep.Unrepairable = append(rep.Unrepairable,
				fmt.Sprintf("%s#%s: %s", f.path, sk, out.reason))
		}
		if len(out.pending) > 0 {
			rep.Deferred = append(rep.Deferred, fmt.Sprintf("%s#%s", f.path, sk))
		}
	}
}

// fixStripe re-resolves a repair unit against current metadata and fixes
// the stripe. A unit whose file was removed, truncated away, or recreated
// under a new file ID resolves to an empty outcome: there is nothing left
// to repair.
func (fs *FileSystem) fixStripe(u repairUnit) fixOutcome {
	rec, err := fs.meta.statRecord(u.path)
	if err != nil {
		if isNotExist(err) {
			return fixOutcome{}
		}
		// Metadata unreachable: retry the unit later.
		return fixOutcome{pending: []string{repairWaitMeta}}
	}
	if rec.File == nil || stripe.Key(rec.File.ID, u.idx) != u.sk {
		return fixOutcome{}
	}
	f, err := fs.newFile(u.path, rec.File, false)
	if err != nil {
		return fixOutcome{}
	}
	if u.idx >= f.layout.Count(f.size) {
		// The stripe key matches the *current* file, yet the index is
		// beyond the committed size. Either the stripe was truncated away
		// — absence is correct — or the unit outran its own writer: a
		// degraded write enqueues as each stripe lands, but Close commits
		// the new size last, so a fast pop sees Size still at the old
		// value. Dropping here would orphan the repair (the write's only
		// enqueue already happened), so ask for a commit-settle rerun;
		// the queue bounds those and drops the unit once the size has had
		// every chance to catch up.
		return fixOutcome{pending: []string{repairWaitCommit}}
	}
	return f.fixStripe(u.idx)
}

// stripeStillExpected re-stats the file and reports whether stripe idx is
// still part of it. It is the double-check before declaring a stripe
// unrepairable: a scrub racing a truncate, remove or recreate sees the
// stripe's keys vanish, and only the re-stat distinguishes "deleted on
// purpose" from "lost". A record under the same file ID keeps its stripe
// size, so the handle's layout still bounds it.
func (f *File) stripeStillExpected(idx int64) bool {
	rec, err := f.fs.meta.statRecord(f.path)
	if err != nil {
		return false // gone (or unknowable): do not cry data loss
	}
	fr := rec.File
	return fr != nil && fr.ID == f.rec.ID && idx < f.layout.Count(fr.Size)
}

// reinstall puts value under key on node for a repair pass, metering the
// node's throttle first. SETNX: it only fills a hole — a concurrent
// writer's fresher value must never be clobbered with the repair's stale
// read. To replace what the pass read there (stale, non-nil) it first
// compare-and-deletes exactly those bytes: if a live writer lands a newer
// value between the two steps, both no-op and the fresher value survives.
// A stored value is recorded in out.restored as fault, what it replaced;
// a node that could not take it, out.pending.
func (f *File) reinstall(out *fixOutcome, node, key string, value, stale []byte, fault string) {
	cli, err := f.fs.conns.client(node)
	if err == nil {
		err = f.fs.conns.throttle(node).Take(int64(len(value)))
	}
	if err == nil && stale != nil {
		var gone bool
		if gone, err = cli.DelVal(key, stale); err == nil && !gone {
			return // changed under us: a live writer owns the slot now
		}
	}
	stored := false
	if err == nil {
		stored, err = cli.SetNX(key, value)
	}
	switch {
	case err != nil:
		out.pending = append(out.pending, node)
	case stored:
		out.restored = append(out.restored, fault)
	}
}

// fixStripe inspects stripe idx of the file as its record stood when this
// read-only handle was built — k+m shards, or R copies, the k = 1 case —
// through the data path's gather, and replaces what is missing, behind or
// unparseable with the write the gather picked: the one a read returns. A
// headers pass decides health; only a stripe with something to rewrite is
// gathered again whole, and only the slots that need it are rebuilt — a
// copy is the winner's own payload, a shard one decode-matrix row
// (ReconstructShards) instead of decoding the whole stripe and re-encoding
// all parity. A slot holding anything but the winning write is replaced,
// never overwritten (reinstall). A stripe with a single slot has no
// redundancy to restore; reads lazily repair its placement drift.
func (f *File) fixStripe(idx int64) fixOutcome {
	fs, k := f.fs, f.k
	if f.n == k {
		return fixOutcome{}
	}
	sk := stripe.Key(f.rec.ID, idx)
	stripeLen := f.layout.StripeLen(f.size, idx)
	var g *ecGather
	var out fixOutcome
	var fix []int
	untraced := &opTrace{o: fs.obs} // a scrub pass is no operation: nothing to trace
	for _, mode := range []gatherMode{gatherHeaders, gatherAll} {
		g = f.gatherStripe(untraced, sk, idx, stripeLen, mode)
		out, fix = fixOutcome{}, fix[:0]
		for i, node := range g.nodes {
			s := &g.slots[i]
			switch {
			case !s.probed || s.err != nil:
				// Not asked (distrusted, and the stripe settled without it) or
				// no answer: retry once the node recovers.
				out.pending = append(out.pending, node)
			case !g.won(s):
				fix = append(fix, i)
			}
		}
		if g.found < k || len(fix) == 0 {
			break
		}
	}
	if g.mixed {
		fs.stats.ecGenConflicts.Add(1)
	}
	if g.found < k {
		if len(out.pending) > 0 {
			return out // the unavailable nodes may hold the missing slots
		}
		if !f.stripeStillExpected(idx) {
			return fixOutcome{}
		}
		out.reason = fmt.Sprintf("only %d of %d slots of one write survive (need %d)", g.found, len(g.slots), k)
		return out
	}
	if len(fix) == 0 {
		return out
	}
	rebuilt, err := f.rebuild(g, fix)
	if err != nil {
		out.reason = fmt.Sprintf("reconstruct failed: %v", err)
		return out
	}
	for j, i := range fix {
		node := g.nodes[i]
		if fs.nodeState(node) != health.Up {
			// It answered the gather, but no repair write crosses a drain
			// fence or chases a node the detector distrusts.
			out.pending = append(out.pending, node)
			continue
		}
		key := dataKey(sk) // every copy of a replicated stripe shares it
		if f.coder != nil {
			key = shardKey(key, i)
		}
		// Name what the slot held: another write, bytes without a valid
		// header (only gatherAll keeps them), or nothing.
		s, fault := &g.slots[i], "missing"
		if s.present {
			fault = "stale"
		} else if s.raw != nil {
			fault = "unparseable"
		}
		f.reinstall(&out, node, key, erasure.WrapShard(g.gen, g.id, rebuilt[j]), s.raw, fault)
	}
	return out
}

// rebuild returns the winning write's payload for each slot in fix: a
// shard's is solved from the survivors, a copy's is any winner's own.
func (f *File) rebuild(g *ecGather, fix []int) ([][]byte, error) {
	shards := g.winnerShards()
	if f.coder != nil {
		return f.coder.ReconstructShards(shards, fix)
	}
	won := slices.DeleteFunc(shards, func(b []byte) bool { return b == nil })
	for len(won) < len(fix) {
		won = append(won, won[0])
	}
	return won[:len(fix)], nil
}
