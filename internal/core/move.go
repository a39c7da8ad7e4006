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

// This file is the one stripe mover: evacuation and the partial drain
// move data keys off a source node through moveBatch, which sends each key
// to the successor of the slot position its source serves (DESIGN.md,
// "One stripe mover"). Towards readers: a key is copied before its source
// is released, so a source that answers "absent" has a copy at the
// successor, which is where a read asks next (File.serve). Between
// movers: batches are serialized per FileSystem (fs.moveMu).

// moveOutcome is what one move did with one key.
type moveOutcome uint8

const (
	moveFailed moveOutcome = iota // the destination did not take it, or the source changed under the move
	moveLeft                      // not attempted: past the evict budget, or ctx ended first
	moveGone                      // absent at the source: nothing to move
	moveMoved                     // copy confirmed at the destination (and evicted, when asked)
	moveOrphan                    // owning file is gone (evicted uncopied, when asked)
	moveStays                     // not the mover's to move: a drain's guest, or a stray no read asks for
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
	nx    bool     // copy with SETNX (see place)
}

// place decides where one key goes (DESIGN §5, "One stripe mover"): to
// the successor of the position its source serves — for a key in its
// slot (its shard index, or the source's copy position) slots(…, src),
// for a guest (the source serves another node's slot) one node further
// along serve's walk. A partial drain keeps its guests, so chains stay
// one hop long. An evacuated key in its slot whose new node is not Up,
// or refuses the copy, goes to that node's successor, where reads ask
// once the source has left. A stray (no slot or successor names it)
// stays: no read asks for it. A partial drain copies a replica with
// SETNX, since all copies share one key and one successor. place returns
// nil and the outcome of a key that does not move.
func (m *mover) place(mf *moveFile, key, sk string) (*moveItem, moveOutcome) {
	fs := m.fs
	cur := mf.targets(sk)
	var pos []int
	if _, shard, _ := parseDataKey(key); shard != "" {
		if s, err := strconv.Atoi(shard); err == nil && s < len(cur) {
			pos = []int{s}
		}
	} else {
		for i := range cur {
			pos = append(pos, i)
		}
	}
	for _, i := range pos {
		var chain []string
		held, _ := mf.serve(sk, i, cur, func(node string) (bool, error) {
			chain = append(chain, node)
			return node == m.node, nil
		})
		if held == "" {
			continue
		}
		if len(chain) > 1 && !m.leaving {
			return nil, moveStays // a guest
		}
		dests := []string{fs.slots(mf.placer, sk, mf.n, chain...)[i]}
		if m.leaving && len(chain) == 1 {
			dests = append(dests, fs.slots(mf.placer, sk, mf.n, m.node, dests[0])[i])
			post := fs.slots(mf.placer, sk, mf.n, m.node)
			for j := range cur {
				if j != i && cur[j] != post[j] {
					m.short[key] = true // another slot passes on at release
				}
			}
		}
		it := &moveItem{nx: !m.leaving && mf.coder == nil && mf.n > 1}
		for _, n := range dests {
			if n != m.node && fs.nodeState(n) == health.Up && !slices.Contains(it.cands, n) {
				it.cands = append(it.cands, n)
			}
		}
		if len(it.cands) == 0 {
			return nil, moveFailed
		}
		return it, 0
	}
	return nil, moveStays
}

// moveBatch moves one batch: a single MGET at the source, then waves of
// one pipelined SET/SETNX burst per destination, where a key whose burst
// or reply failed joins the next wave at its next candidate. An evicting
// move then compare-deletes what it copied (and orphans) against what it
// read — a stripe value by its header alone (delValArg), since core
// writes one payload per (generation, write ID) per key — so a write that
// raced the move keeps its update and fails the key.
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
		} else if it, o := m.place(mf, key, sk); it != nil {
			it.i = i
			pend = append(pend, it)
		} else {
			out[i] = o
			continue
		}
		budget -= cost(i)
	}
	for len(pend) > 0 {
		perDest := make(map[string][]*moveItem)
		for _, it := range pend {
			if len(it.cands) > 0 { // else no destination took it: failed
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
					if it.nx {
						pl.SetNX(keys[it.i], vals[it.i])
					} else {
						pl.Set(keys[it.i], vals[it.i])
					}
				}
				replies, err = pl.Run()
			}
			for j, it := range wave {
				switch {
				case err != nil || replies[j].Err() != nil:
					// A store-level rejection (destination over its cap)
					// tries the next candidate like a transport failure.
					pend = append(pend, it)
				case !it.nx || replies[j].Int == 1:
					out[it.i] = moveMoved
				}
				// A :0 SETNX reply: the successor serves another slot of
				// the stripe, and the key stays (moveFailed).
			}
		}
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
