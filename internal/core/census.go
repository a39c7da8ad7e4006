package core

import (
	"fmt"
	"slices"
	"time"

	"memfss/internal/erasure"
	"memfss/internal/health"
	"memfss/internal/stripe"
)

// CensusReport is what one census found (DESIGN §5 "One store census"):
// every stripe judged from its slot headers, and every data key a node
// holds sorted into one class. Fsck, Scrub and RepairFile return it.
type CensusReport struct {
	// Files and Dirs count namespace entries visited; Bytes totals the
	// sizes of the files found undamaged.
	Files, Dirs int
	Bytes       int64
	// StripesChecked counts stripes whose slot headers were gathered.
	StripesChecked int
	// Short counts readable stripes a slot of which answered without the
	// winning write: redundancy below k+m shards (R copies).
	Short int
	// Restored names each slot a Scrub rewrote, as "path#stripe slot i on
	// node: missing|stale|unparseable" — what the slot held before.
	Restored []string
	// Damaged lists the files a read could not return in full, and
	// Unrepairable their stripes as "path#stripe: reason": fewer than k
	// slots hold one write, judged with the read's own rules.
	Damaged      []string
	Unrepairable []string
	// Deferred lists "path#stripe" units a slot of which is on a node
	// Down, Suspect or unreachable: not damaged as far as anyone can tell,
	// but not verified or restored until the node returns.
	Deferred []string
	// Nodes is the key listing, one row per node; OrphanStripes,
	// StrayKeys and PastEOFKeys total its columns.
	Nodes         []NodeKeys
	OrphanStripes int
	StrayKeys     int
	PastEOFKeys   int
	// blocked maps each deferred stripe's raw key to the nodes it waits
	// on, and unread names the files whose record did not answer: what the
	// repair queue's pass keeps owed, and waits for. ended is when a
	// census from "/" ended.
	blocked map[string][]string
	unread  map[string]bool
	ended   time.Time
}

// NodeKeys sorts one node's data keys. A key is InSlot where a slot of
// its stripe names this node, or where this node is the successor that
// serves a slot whose node lacks the key (a partial drain moved it); a
// Stray belongs to a live file but sits where no read asks for it (a
// stripe rewritten whole since a drain moved it); an Orphan's file
// ID is no live file's (a crash mid-remove); PastEOF belongs to a live
// file at or beyond its recorded size (a crashed shrink, an unclosed
// writer). Strays and orphans are counted, never deleted.
type NodeKeys struct {
	Node                           string
	InSlot, Stray, Orphan, PastEOF int
}

// damage records stripe unit of path as lost for reason.
func (rep *CensusReport) damage(path, unit, reason string) {
	rep.Unrepairable = append(rep.Unrepairable, fmt.Sprintf("%s#%s: %s", path, unit, reason))
	if !slices.Contains(rep.Damaged, path) {
		rep.Damaged = append(rep.Damaged, path)
	}
}

// fixOutcome is the result of inspecting/repairing one stripe, shared by
// the census and the background repair queue.
type fixOutcome struct {
	restored []string // "slot i on node: missing|stale|unparseable" per rewrite
	// pending lists nodes that could not be checked or written (detector
	// says Suspect/Down, or a transport error): retry once they recover.
	pending []string
	reason  string // why the stripe is unrepairable, when it is
	// blocked says why a repair unit's fix could not start, when it could
	// not: metadata did not answer, or pastEOF.
	blocked string
}

// Fsck is the census without fixes: it sends no write, no delete and no
// repair enqueue, and reads no payload — 18 header bytes a slot and one
// key listing a node. Checking the bytes themselves is VerifyFile's.
func (fs *FileSystem) Fsck() (*CensusReport, error) { return fs.census("/", false) }

// Scrub is the census that also restores each short stripe's missing,
// behind or unparseable slots from the winning write, as the repair queue
// does. It is the anti-entropy complement to the targeted queue: run it
// after a node loss so the next failure finds full redundancy. A restore
// only fills a hole (SETNX) and never writes a node the detector
// distrusts; that stripe is Deferred.
func (fs *FileSystem) Scrub() (*CensusReport, error) { return fs.census("/", true) }

// RepairFile runs the Scrub census over the file at path (over every
// file under it, for a directory) — the operator verb behind
// `memfsctl repair <path>`.
func (fs *FileSystem) RepairFile(path string) (*CensusReport, error) { return fs.census(path, true) }

// listedKey is one data key of a live file as a node's listing returned
// it; row indexes the node's CensusReport.Nodes row.
type listedKey struct {
	key string
	idx int64
	row int
}

// census walks the namespace under root once, lists every node's data
// keys once, and judges every stripe of every file from its slot headers
// (gatherHeaders). With fix, each short stripe is then restored as the
// repair queue does it. A census under a subtree cannot tell another
// file's keys from orphans, so only one from "/" counts orphans.
func (fs *FileSystem) census(root string, fix bool) (*CensusReport, error) {
	rep := &CensusReport{blocked: make(map[string][]string), unread: make(map[string]bool)}
	var files []*File
	live := make(map[string][]listedKey)
	err := fs.Walk(root, func(e EntryInfo) error {
		if e.IsDir {
			rep.Dirs++
			return nil
		}
		rep.Files++
		rec, err := fs.meta.statRecord(e.Path)
		switch {
		case err == nil && rec.File != nil:
			f, err := fs.newFile(e.Path, rec.File, false)
			if err != nil {
				return err
			}
			files = append(files, f)
			live[rec.File.ID] = nil
		case err != nil && !isNotExist(err): // else a benign race with a remove
			rep.damage(e.Path, "meta", err.Error())
			rep.unread[e.Path] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, cls := range fs.Classes() {
		for _, n := range cls.Nodes {
			row := len(rep.Nodes)
			rep.Nodes = append(rep.Nodes, NodeKeys{Node: n.ID})
			// A distrusted node is not listed (no wait, no evidence fed
			// the detector): its row stays empty, as an unreachable one's.
			var keys []string
			if st := fs.nodeState(n.ID); st == health.Up || st == health.Draining {
				if cli, err := fs.conns.client(n.ID); err == nil {
					keys, _ = listStripes(cli)
				}
			}
			for _, k := range keys {
				id, _, idx, ok := stripeOfKey(k)
				if listed, isLive := live[id]; ok && isLive {
					live[id] = append(listed, listedKey{k, idx, row})
				} else if root == "/" {
					rep.Nodes[row].Orphan++
					rep.OrphanStripes++
				}
			}
		}
	}
	for _, f := range files {
		f.census(rep, live[f.rec.ID], fix)
	}
	if root == "/" {
		rep.ended = time.Now()
		fs.obs.lastCensus.Store(rep)
	}
	return rep, nil
}

// census judges every stripe of the file from its slot headers, sorts
// the file's listed keys, and adds both — and, with fix, what it restored
// — to rep. A stripe is readable when a write reached k slots, each slot
// served by its node or its successor as a read's is (File.serve).
func (f *File) census(rep *CensusReport, listed []listedKey, fix bool) {
	count := f.layout.Count(f.size)
	byIdx := make(map[int64][]listedKey)
	for _, lk := range listed {
		if lk.idx >= count {
			rep.Nodes[lk.row].PastEOF++
			rep.PastEOFKeys++
		} else {
			byIdx[lk.idx] = append(byIdx[lk.idx], lk)
		}
	}
	for idx := int64(0); idx < count; idx++ {
		rep.StripesChecked++
		f.fs.obs.scrubChk.Inc()
		c := f.inspect(idx, gatherHeaders)
		for _, lk := range byIdx[idx] {
			row := &rep.Nodes[lk.row]
			inSlot := false
			for i, node := range c.g.nodes {
				served := c.g.slots[i].at
				if served == "" {
					served = node
				}
				inSlot = inSlot || served == row.Node && f.slotKey(c.sk, i) == lk.key
			}
			if inSlot {
				row.InSlot++
			} else {
				row.Stray++
				rep.StrayKeys++
			}
		}
		out := fixOutcome{pending: c.pending}
		switch {
		case c.g.found < f.k:
			out.reason = f.lost(c)
		case len(c.fix) > 0:
			rep.Short++
			if fix && c.g.found >= f.k {
				out = f.restore(c)
			}
		}
		for _, r := range out.restored {
			rep.Restored = append(rep.Restored, fmt.Sprintf("%s#%s %s", f.path, c.sk, r))
		}
		if len(out.restored) > 0 {
			f.fs.obs.scrubRest.Add(int64(len(out.restored)))
			f.fs.obs.note("repair", "", fmt.Sprintf("restored %s#%s (+%d copies %v)", f.path, c.sk, len(out.restored), out.restored), 0)
		}
		if out.reason != "" {
			rep.damage(f.path, c.sk, out.reason)
		}
		if len(out.pending) > 0 {
			rep.Deferred = append(rep.Deferred, fmt.Sprintf("%s#%s", f.path, c.sk))
			rep.blocked[c.sk] = out.pending
		}
	}
	if !slices.Contains(rep.Damaged, f.path) {
		rep.Bytes += f.size
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
		return fixOutcome{blocked: "metadata: " + err.Error()}
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
		// the new size last. The stripe stays owed, and the writer's
		// commit makes the pass that judges it due.
		return fixOutcome{blocked: pastEOF}
	}
	if f.n == f.k {
		return fixOutcome{} // one slot: no redundancy to restore
	}
	return f.restore(f.inspect(u.idx, gatherHeaders))
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
// compare-and-deletes exactly those bytes — by their header alone
// (delValArg), which core's one payload per (generation, write ID) per
// key makes the same test: if a live writer lands a newer value between
// the two steps, both no-op and the fresher value survives.
// SETNX is tried whatever DELVAL answers: "not deleted" also comes from a
// retry whose first attempt deleted the bytes and lost its reply, and only
// SETNX can tell that hole from a live writer's value.
// A stored value is recorded in out.restored as what, naming the slot and
// what it replaced; a node that could not take it, in out.pending.
func (f *File) reinstall(out *fixOutcome, node, key string, value, stale []byte, what string) {
	cli, err := f.fs.conns.client(node)
	if err == nil {
		err = f.fs.conns.throttle(node).Take(int64(len(value)))
	}
	if err == nil && stale != nil {
		_, err = cli.DelVal(key, delValArg(stale))
	}
	stored := false
	if err == nil {
		stored, err = cli.SetNX(key, value)
	}
	switch {
	case err != nil:
		out.pending = append(out.pending, node)
	case stored:
		out.restored = append(out.restored, what)
	}
}

// slotKey is the store key of slot i of stripe sk: every copy of a
// replicated stripe shares one key, a shard's names its index.
func (f *File) slotKey(sk string, i int) string {
	if f.coder != nil {
		return shardKey(dataKey(sk), i)
	}
	return dataKey(sk)
}

// stripeCheck is one stripe as an every-slot gather saw it.
type stripeCheck struct {
	idx     int64
	sk      string
	g       *ecGather
	fix     []int    // slots that answered without the winning write
	pending []string // nodes not asked (distrusted, and the stripe settled without them) or not answering
}

// inspect gathers stripe idx of the file as its record stood when this
// read-only handle was built — k+m shards, or R copies, the k = 1 case —
// through the data path's gather, and sorts its slots.
func (f *File) inspect(idx int64, mode gatherMode) *stripeCheck {
	c := &stripeCheck{idx: idx, sk: stripe.Key(f.rec.ID, idx)}
	untraced := &opTrace{o: f.fs.obs} // a census is no operation: nothing to trace
	c.g = f.gatherStripe(untraced, c.sk, idx, f.layout.StripeLen(f.size, idx), mode, false)
	if c.g.mixed {
		f.fs.stats.ecGenConflicts.Add(1)
	}
	for i, node := range c.g.nodes {
		switch s := &c.g.slots[i]; {
		case !s.probed || s.err != nil:
			c.pending = append(c.pending, node)
		case !c.g.won(s):
			c.fix = append(c.fix, i)
		}
	}
	return c
}

// lost says why a stripe no write reached k slots of is lost, or "" when
// it is not: a node that did not answer may hold the missing slots, the
// stripe is an erasure stripe never written (the read's hole,
// ecGather.hole), or it is no longer part of the file. A replicated
// stripe no copy of which survives is reported: the census cannot tell
// it from a hole, and a lost one must not go unnamed.
func (f *File) lost(c *stripeCheck) string {
	hole := f.coder != nil && c.g.hole(f.k)
	if len(c.pending) > 0 || hole || !f.stripeStillExpected(c.idx) {
		return ""
	}
	return fmt.Sprintf("only %d of %d slots of one write survive (need %d)", c.g.found, len(c.g.slots), f.k)
}

// restore replaces what a headers pass found missing, behind or
// unparseable with the write the gather picked: the one a read returns.
// The stripe is gathered again whole, and only the slots that need it are
// rebuilt — a copy is the winner's own payload, a shard one decode-matrix
// row (ReconstructShards). A slot holding anything but the winning write
// is replaced, never overwritten (reinstall).
func (f *File) restore(c *stripeCheck) fixOutcome {
	if c.g.found >= f.k && len(c.fix) > 0 {
		c = f.inspect(c.idx, gatherAll)
	}
	out := fixOutcome{pending: c.pending}
	if c.g.found < f.k {
		out.reason = f.lost(c)
		return out
	}
	if len(c.fix) == 0 {
		return out
	}
	rebuilt, err := f.rebuild(c.g, c.fix)
	if err != nil {
		out.reason = fmt.Sprintf("reconstruct failed: %v", err)
		return out
	}
	for j, i := range c.fix {
		// A slot is restored where it is served: its node, or the
		// successor holding a copy a write behind.
		node := c.g.nodes[i]
		if at := c.g.slots[i].at; at != "" {
			node = at
		}
		if f.fs.nodeState(node) != health.Up {
			// It answered the gather, but no repair write crosses a drain
			// fence or chases a node the detector distrusts.
			out.pending = append(out.pending, node)
			continue
		}
		// Name what the slot held: another write, bytes without a valid
		// header (only gatherAll keeps them), or nothing.
		s, fault := &c.g.slots[i], "missing"
		if s.present {
			fault = "stale"
		} else if s.raw != nil {
			fault = "unparseable"
		}
		f.reinstall(&out, node, f.slotKey(c.sk, i), erasure.WrapShard(c.g.gen, c.g.id, rebuilt[j]), s.raw,
			fmt.Sprintf("slot %d on %s: %s", i, node, fault))
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
