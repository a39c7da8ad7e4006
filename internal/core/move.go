package core

import (
	"context"
	"slices"
	"sort"
	"strconv"
	"strings"

	"memfss/internal/erasure"
	"memfss/internal/fsmeta"
	"memfss/internal/health"
	"memfss/internal/kvstore"
	"memfss/internal/qos"
)

// This file is the one stripe mover: evacuation, the partial drain and a
// read's lazy repair all move data keys off a source node through
// moveBatch, which owns two invariants (DESIGN.md, "One stripe mover").
// Towards readers: fs.moveSeq is bumped after a copy is confirmed and
// before its source is released, and a read that found a stripe nowhere
// gathers and deep-probes again when the sequence changed under it or a
// fence is up (readSpan), so a stripe in transit is never mistaken for a
// hole. Between movers: batches are serialized per FileSystem
// (fs.moveMu), so two moves of one key in opposite directions cannot each
// take the other's source for their confirmed copy and then both release.

// moveOutcome is what one move did with one key.
type moveOutcome uint8

const (
	moveFailed moveOutcome = iota // no destination took it, or the source changed under the move
	moveLeft                      // not attempted: past the evict budget, or ctx ended first
	moveGone                      // absent at the source: nothing to move
	moveMoved                     // copy confirmed elsewhere (and evicted, when asked)
	moveOrphan                    // owning file is gone (evicted uncopied, when asked)
)

// moveFile is what a move needs from a key's owning file: a read-only
// handle on its record (path and slots) and the owner's reclamation
// priority.
type moveFile struct {
	*File
	prio qos.Priority
}

// mover moves data keys off one source node. files caches the per-file
// resolution for the mover's lifetime: a move touches many keys of few
// files, so the metadata round trips are paid once per file, not per key
// per pass. leaving marks an evacuation's mover, whose source leaves at
// release; short collects the keys whose stripes that release leaves
// short, for the repair queue.
type mover struct {
	fs      *FileSystem
	src     *kvstore.Client
	node    string
	files   map[string]*moveFile
	leaving bool
	short   map[string]bool
}

func (fs *FileSystem) newMover(src *kvstore.Client, node string) *mover {
	return &mover{fs: fs, src: src, node: node, files: make(map[string]*moveFile)}
}

// file resolves a file ID. A nil file with nil error is an orphan (its
// file is gone). Transport errors against the metadata service propagate:
// treating an unreachable own node as "file removed" would silently drop
// live data. Only successful resolutions are cached — an orphan verdict
// can be a rename caught between the two lookups, and must not stick.
func (m *mover) file(id string) (*moveFile, error) {
	if mf := m.files[id]; mf != nil {
		return mf, nil
	}
	path, err := m.fs.meta.lookupFileID(id)
	var rec *fsmeta.Record
	if err == nil {
		rec, err = m.fs.meta.statRecord(path)
	}
	if isNotExist(err) || (err == nil && rec.File == nil) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	f, err := m.fs.newFile(path, rec.File, false)
	if err != nil {
		return nil, err
	}
	mf := &moveFile{File: f, prio: m.fs.tenants().PriorityFor(path)}
	m.files[id] = mf
	return mf, nil
}

// priority is a key's reclamation priority; unresolvable keys (orphans,
// transient metadata errors) rank PriorityNormal.
func (m *mover) priority(key string) qos.Priority {
	if id, _, ok := parseDataKey(key); ok {
		if mf, _ := m.file(id); mf != nil {
			return mf.prio
		}
	}
	return qos.PriorityNormal
}

// byPriority stably sorts a drain candidate list so low-priority tenants'
// keys move first: under pressure the cheap data leaves before a
// high-priority tenant loses anything (paper §III-A's reclamation, made
// priority-aware). Without QoS the listing order is returned unchanged.
func (m *mover) byPriority(keys []string) []string {
	if m.fs.tenants() == nil || len(keys) <= 1 {
		return keys
	}
	prio := make(map[string]qos.Priority, len(keys))
	for _, k := range keys {
		prio[k] = m.priority(k)
	}
	sort.SliceStable(keys, func(i, j int) bool { return prio[keys[i]] < prio[keys[j]] })
	return keys
}

// move runs keys through moveBatch in PipelineDepth-sized batches and
// reports every key's outcome to visit. evict is how many bytes to free
// at the source by compare-delete, in key order; 0 copies only (the caller
// releases the source itself). Keys not reached — the budget was spent, or
// ctx ended — are reported moveLeft.
func (m *mover) move(ctx context.Context, keys []string, evict int64, visit func(key string, o moveOutcome)) {
	done := false
	for len(keys) > 0 {
		batch := keys[:min(len(keys), max(m.fs.pipeDepth, 1))]
		keys = keys[len(batch):]
		if done || ctx.Err() != nil {
			for _, key := range batch {
				visit(key, moveLeft)
			}
			continue
		}
		out, freed := m.moveBatch(batch, evict)
		if evict > 0 {
			evict -= freed
			done = evict <= 0
		}
		for i, key := range batch {
			visit(key, out[i])
		}
	}
}

// moveItem is one key of a batch awaiting its copy.
type moveItem struct {
	i     int      // index into the batch
	cands []string // destinations still to try, best first
	keep  []string // destinations whose copy a SET could clobber: SETNX there
	slot  string   // an evacuated key's slot after release ("" for a stray)
}

// place decides where one key goes (DESIGN §5, "One placement rule"). A
// key in its slot — its shard index, or the source's copy position — is
// copied with SET, since no writer reaches a node under that key unless
// it holds the stripe's slot; a copy onto another holder of a replicated
// stripe is SETNX. A stray, a copy no slot names, goes with SETNX
// wherever it goes: writers reach its slots. An evacuation sends a key
// to its slot once the source has left, slots(…, src), and only when that
// node is not Up, or refuses the copy, to the healthy probe-order nodes
// that hold no slot. A partial drain or lazy repair keeps its source as a
// member: its keys go down the probe order minus the source, healthy first.
// A shard key past the file's slots places nowhere (nil).
func (m *mover) place(mf *moveFile, key, sk string) *moveItem {
	fs := m.fs
	cur := mf.targets(sk)
	post := cur
	if m.leaving {
		post = fs.slots(mf.placer, sk, mf.n, m.node)
	}
	i := slices.Index(cur, m.node) // the source's slot, or -1
	want := post                   // a copy may go back to any slot
	it := &moveItem{keep: cur}
	if _, shard, _ := parseDataKey(key); shard != "" {
		s, err := strconv.Atoi(shard)
		if err != nil || s >= len(post) {
			return nil
		}
		if s != i {
			i = -1
		}
		want, it.keep = post[s:s+1], nil
	}
	probe := mf.placer.ProbeOrder(sk)
	if m.leaving {
		for _, n := range slices.Concat(want, probe) {
			if n != m.node && fs.nodeState(n) == health.Up && !slices.Contains(it.cands, n) &&
				(slices.Contains(want, n) || !slices.Contains(post, n)) {
				it.cands = append(it.cands, n)
			}
		}
	} else {
		it.cands = fs.healthOrder(slices.DeleteFunc(probe, func(n string) bool { return n == m.node }))
	}
	switch {
	case i < 0:
		it.keep = it.cands
	case m.leaving:
		it.slot = post[i]
		for j := range cur {
			if j != i && cur[j] != post[j] {
				m.short[key] = true // another slot passes on at release
			}
		}
	}
	return it
}

// moveBatch moves one batch: a single MGET at the source, then waves of
// one pipelined SETNX/SET burst per destination, where a key whose burst
// or reply failed joins the next wave at its next candidate — failing the
// whole batch instead would retry the same dead destination next pass.
// Each key's candidates and verb come from place; they favour healthy
// nodes, since with a holder concurrently dead, rank order alone would
// keep steering copies at the Down node. An evicting move then
// compare-deletes what it copied (and orphans) against what it read — a
// stripe value by its header alone (delValArg), since core writes one
// payload per (generation, write ID) per key — so a write that raced the
// move keeps its update and fails the key.
func (m *mover) moveBatch(keys []string, evict int64) (out []moveOutcome, freed int64) {
	fs := m.fs
	out = make([]moveOutcome, len(keys))
	fs.moveMu.Lock()
	defer fs.moveMu.Unlock()
	vals, err := m.src.MGet(keys...)
	if err != nil {
		return out, 0
	}
	cost := func(i int) int64 { return int64(len(keys[i])+len(vals[i])) + kvstore.EntryOverhead }
	var pend []*moveItem
	budget := evict
	for i, key := range keys {
		if evict > 0 && budget <= 0 {
			// A partial drain evicts only what pressure demands: in
			// priority order, the tail survives.
			out[i] = moveLeft
			continue
		}
		if vals[i] == nil {
			out[i] = moveGone
			continue
		}
		budget -= cost(i)
		id, sk, _, ok := stripeOfKey(key)
		if !ok {
			continue
		}
		mf, err := m.file(id)
		if err != nil {
			continue
		}
		if mf == nil {
			out[i] = moveOrphan
			continue
		}
		if it := m.place(mf, key, sk); it != nil {
			it.i = i
			pend = append(pend, it)
		}
	}
	copied := false
	for len(pend) > 0 {
		perDest := make(map[string][]*moveItem)
		for _, it := range pend {
			if len(it.cands) > 0 { // else no live node accepts it: failed
				perDest[it.cands[0]] = append(perDest[it.cands[0]], it)
				it.cands = it.cands[1:]
			}
		}
		pend = pend[:0]
		for dest, wave := range perDest {
			var total int64
			for _, it := range wave {
				total += int64(len(vals[it.i]))
			}
			var replies []*kvstore.Reply
			dst, err := fs.conns.client(dest)
			if err == nil {
				err = fs.conns.throttle(dest).Take(total)
			}
			if err == nil {
				pl := dst.Pipeline()
				for _, it := range wave {
					if slices.Contains(it.keep, dest) {
						pl.SetNX(keys[it.i], vals[it.i])
					} else {
						pl.Set(keys[it.i], vals[it.i])
					}
				}
				replies, err = pl.Run()
			}
			for j, it := range wave {
				// A :0 SETNX reply means a copy already lives there — done.
				// A store-level rejection (destination over its cap) tries
				// the next candidate like a transport failure does.
				if err == nil && replies[j].Err() == nil {
					out[it.i] = moveMoved
					copied = true
					if it.slot != "" && dest != it.slot {
						m.short[keys[it.i]] = true // fell back off its slot
					}
				} else {
					pend = append(pend, it)
				}
			}
		}
	}
	if copied {
		// Copies confirmed, sources not yet released: a reader that saw a
		// key nowhere across this point looks again (readSpan).
		fs.moveSeq.Add(1)
	}
	if evict <= 0 {
		return out, 0
	}
	pl := m.src.Pipeline()
	var release []int
	for i, o := range out {
		if o == moveMoved || o == moveOrphan {
			pl.DelVal(keys[i], delValArg(vals[i]))
			release = append(release, i)
		}
	}
	replies, err := pl.Run()
	for j, i := range release {
		if err == nil && replies[j].Err() == nil && replies[j].Int == 1 {
			freed += cost(i)
		} else {
			// Mismatch: a write updated the key after it was read. The
			// update is preserved; the key waits for the next sweep.
			out[i] = moveFailed
		}
	}
	return out, freed
}

// delValArg is what a compare-and-delete of value v sends: a stripe
// value's header alone, else v in full. The store compares a header with
// the header it keeps, and core writes exactly one payload per
// (generation, write ID) per key, so the header names the bytes — and a
// write since the read has stamped another, so the delete declines.
func delValArg(v []byte) []byte {
	if erasure.HasHeader(v) {
		return v[:erasure.HeaderSize]
	}
	return v
}

// stripeOfKey splits a data key into its owning file ID, raw stripe key
// (shard suffix dropped: what placement and the repair queue key on) and
// stripe index.
func stripeOfKey(key string) (fileID, sk string, idx int64, ok bool) {
	fileID, shard, ok := parseDataKey(key)
	if !ok {
		return "", "", 0, false
	}
	sk = strings.TrimSuffix(strings.TrimPrefix(key, "data:"), "/s"+shard)
	idx, _ = strconv.ParseInt(sk[len(fileID)+1:], 10, 64)
	return fileID, sk, idx, true
}
