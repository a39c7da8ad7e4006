// Package kvstore implements the in-memory data store MemFSS runs on every
// own and victim node — the role Redis plays in the paper (§III-D). It is a
// from-scratch, stdlib-only store with a RESP-like TCP wire protocol,
// authentication (§III-F), per-store memory caps (the container limit of
// §III-F), and the introspection the scavenging monitor needs (§III-A).
package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"memfss/internal/erasure"
)

// EntryOverhead approximates the bookkeeping bytes per stored entry
// (hash-table slot, headers). It keeps memory accounting honest for
// many-small-key workloads such as MemFSS metadata. An entry accounts for
// len(key) + len(value) + EntryOverhead bytes of Stats.BytesUsed.
const EntryOverhead = 64

// ErrNoSpace classifies store-full rejections: the write was refused
// because it would push the store past its memory cap. Unlike transport
// failures (ErrUnavailable) this is not transient from the writer's point
// of view — retrying the same store burns the retry budget for nothing —
// so callers should fail fast and place the data elsewhere.
var ErrNoSpace = errors.New("kvstore: no space left in store")

// ErrOOM is returned when a write would push the store past its memory
// cap. It wraps ErrNoSpace so errors.Is(err, ErrNoSpace) classifies both
// in-process store errors and decoded wire replies the same way.
var ErrOOM = fmt.Errorf("%w: out of memory (over configured cap)", ErrNoSpace)

// ErrWrongType is returned when a key holds the other kind of value
// (string vs. set) than the operation expects.
var ErrWrongType = errors.New("kvstore: operation against a key holding the wrong kind of value")

// Stats is a point-in-time snapshot of a store's state.
type Stats struct {
	BytesUsed int64 // accounted payload + overhead bytes
	MaxMemory int64 // configured cap; 0 = unlimited
	NumKeys   int   // string keys
	NumSets   int   // set keys
	TotalOps  int64 // commands executed since start
	Pressure  bool  // BytesUsed exceeds the pressure watermark
}

// pressureWatermark is the fill fraction above which Stats.Pressure is
// reported; the cluster memory monitor uses it to decide when to signal
// MemFSS to evacuate a victim store.
const pressureWatermark = 0.9

// entry is one string value. A stripe value (its bytes start with a valid
// erasure header) keeps the header in hdr, beside an exact-size payload:
// a page-sized stripe is one page-sized allocation, not a page plus 18
// bytes spilling into the next. Reads, lengths and accounting all see the
// view — hdr‖val, or val alone when hdr is nil — the bytes as written.
// hdr is a pointer: a headerless value costs the map one word, and an
// in-place write reaches the header the map holds, as it does the payload.
type entry struct {
	hdr *[erasure.HeaderSize]byte
	val []byte
}

// splitEntry returns the entry for value v, its payload aliasing v.
func splitEntry(v []byte) entry {
	if !erasure.HasHeader(v) {
		return entry{val: v}
	}
	return entry{hdr: (*[erasure.HeaderSize]byte)(bytes.Clone(v[:erasure.HeaderSize])), val: v[erasure.HeaderSize:]}
}

// size is the length of e's view.
func (e entry) size() int64 {
	if e.hdr != nil {
		return erasure.HeaderSize + int64(len(e.val))
	}
	return int64(len(e.val))
}

// parts splits view bytes [from, to) into the part in e's header and the
// part in its payload; to <= e.size().
func (e entry) parts(from, to int64) (head, body []byte) {
	if e.hdr != nil {
		if from < erasure.HeaderSize {
			head = e.hdr[from:min(to, erasure.HeaderSize)]
		}
		from, to = max(from-erasure.HeaderSize, 0), max(to-erasure.HeaderSize, 0)
	}
	return head, e.val[from:to]
}

// appendRange appends view bytes [from, to) to dst; to <= e.size().
func (e entry) appendRange(dst []byte, from, to int64) []byte {
	head, body := e.parts(from, to)
	return append(append(dst, head...), body...)
}

// grown returns e with a view of at least end bytes: e itself when it is
// long enough, else e over a zero-extended copy of its payload.
func (e entry) grown(end int64) entry {
	if e.hdr != nil {
		end = max(end-erasure.HeaderSize, 0)
	}
	e.val = grow(e.val, end)
	return e
}

// writeAt writes p at view offset off, which e's view must cover.
func (e entry) writeAt(off int64, p []byte) {
	if e.hdr != nil {
		if off < erasure.HeaderSize {
			n := copy(e.hdr[off:], p)
			p, off = p[n:], erasure.HeaderSize
		}
		off -= erasure.HeaderSize
	}
	copy(e.val[off:], p)
}

// stripe returns the generation and write ID in the header e's view starts
// with, and the payload behind it; ok is false without a valid header.
// It reads the view, so a header SETRANGE wrote counts as well.
func (e entry) stripe() (gen, id uint64, payload []byte, ok bool) {
	h, payload := e.val, e.val[min(len(e.val), erasure.HeaderSize):]
	if e.hdr != nil {
		h, payload = e.hdr[:], e.val
	}
	if !erasure.HasHeader(h) {
		return 0, 0, nil, false
	}
	gen, id, _, _ = erasure.ParseShard(h)
	return gen, id, payload, true
}

// matches reports whether e's view is value, or — for a split entry and a
// value of exactly erasure.HeaderSize bytes — whether its header is.
func (e entry) matches(value []byte) bool {
	if e.hdr == nil {
		return bytes.Equal(e.val, value)
	}
	if !bytes.Equal(e.hdr[:], value[:min(len(value), erasure.HeaderSize)]) {
		return false
	}
	return len(value) == erasure.HeaderSize || bytes.Equal(e.val, value[erasure.HeaderSize:])
}

// Store is the in-memory engine: a flat map of string keys to byte values
// plus a map of set keys to member sets. All methods are safe for
// concurrent use. A stored value is owned by the store: writes keep (or
// copy in) their buffer, and reads copy out under the lock — except a
// wire GET/GETRANGE reply, which borrows the stored payload until the
// connection has written it (lendRange). An in-place write (SetRange, a
// range VSET) copies a lent buffer before writing (unlent), so a lent
// byte never changes and no reader sees a torn range. Header bytes are
// never lent: a whole VSET restamps them in place.
type Store struct {
	mu     sync.RWMutex
	data   map[string]entry
	sets   map[string]map[string]struct{}
	loans  map[*byte]int // open reply loans per payload buffer (loanKey)
	used   int64
	maxMem int64
	ops    int64
}

// NewStore returns an empty store. maxMemory of 0 means unlimited.
func NewStore(maxMemory int64) *Store {
	return &Store{
		data:   make(map[string]entry),
		sets:   make(map[string]map[string]struct{}),
		loans:  make(map[*byte]int),
		maxMem: maxMemory,
	}
}

func (s *Store) countOp() { s.ops++ }

// SetMaxMemory adjusts the cap at runtime (the container resize of
// §III-F). Shrinking below current usage does not evict; it only makes the
// store report pressure and refuse further writes.
func (s *Store) SetMaxMemory(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxMem = n
}

// wouldOverflow reports whether adding delta bytes would exceed the cap.
func (s *Store) wouldOverflow(delta int64) bool {
	return s.maxMem > 0 && s.used+delta > s.maxMem
}

// errTooLarge refuses a SetRange or VSET whose end lies past maxBulkLen:
// the value could never be read back over the wire, and building it could
// overflow.
var errTooLarge = errors.New("kvstore: string exceeds maximum allowed size")

// Set stores a copy of value under key, replacing any existing string value.
func (s *Store) Set(key string, value []byte) error {
	e := splitEntry(value)
	e.val = bytes.Clone(e.val)
	return s.set(key, e)
}

// set is Set for a value the store keeps as given — the server hands it the
// entry a SET was read into, so no payload byte is copied under the lock.
// The caller must not touch value's payload afterwards.
func (s *Store) set(key string, value entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.countOp()
	if _, isSet := s.sets[key]; isSet {
		return ErrWrongType
	}
	old, exists := s.data[key]
	return s.put(key, old, exists, value)
}

// put stores next under key in place of old (exists: the key held a
// value), keeping the accounting, and refuses growth past the cap. Called
// with mu held.
func (s *Store) put(key string, old entry, exists bool, next entry) error {
	delta := next.size() - old.size()
	if !exists {
		delta += int64(len(key)) + EntryOverhead
	}
	if delta > 0 && s.wouldOverflow(delta) {
		return ErrOOM
	}
	s.data[key] = next
	s.used += delta
	return nil
}

// grow returns v when it holds at least end bytes, else a zero-extended
// copy of it (an empty value, for a nil v: a stored value is never nil).
func grow(v []byte, end int64) []byte {
	if v != nil && int64(len(v)) >= end {
		return v
	}
	next := make([]byte, end)
	copy(next, v)
	return next
}

// MGet returns a copy of each key's value, aligned with keys; missing keys
// (and keys holding sets) yield nil entries.
func (s *Store) MGet(keys []string) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.countOp()
	out := make([][]byte, len(keys))
	for i, key := range keys {
		if v, ok := s.data[key]; ok {
			out[i] = v.appendRange(make([]byte, 0, v.size()), 0, v.size())
		}
	}
	return out
}

// setNX stores value under key only if the key does not exist (in either
// namespace), keeping the value as given, like set. It reports whether the
// value was stored.
func (s *Store) setNX(key string, value entry) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.countOp()
	if _, isSet := s.sets[key]; isSet {
		return false, nil
	}
	if _, exists := s.data[key]; exists {
		return false, nil
	}
	if err := s.put(key, entry{}, false, value); err != nil {
		return false, err
	}
	return true, nil
}

// Get returns a copy of the value stored under key, and whether it exists.
func (s *Store) Get(key string) ([]byte, bool, error) {
	return s.GetRangeAppend(nil, key, 0, math.MaxInt64)
}

// GetRangeAppend appends length bytes of key's value starting at offset to
// dst and returns the extended slice (dst, possibly reallocated by append,
// even on error). Reads past the end are truncated; a missing key yields
// ok=false.
func (s *Store) GetRangeAppend(dst []byte, key string, offset, length int64) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, from, to, ok, err := s.rangeOf(key, offset, length)
	if !ok {
		return dst, false, err
	}
	return v.appendRange(dst, from, to), true, nil
}

// lendRange is GetRangeAppend for a wire reply: it queues on enc the bulk
// reply of key's view bytes [offset, offset+length). Framing and header
// bytes are copied into enc's arena; a payload part of zeroCopyMin bytes
// or more is not — the stored slice itself goes on enc, returned as loan,
// which the caller passes to endLoans once enc is written. Until then an
// in-place write copies that buffer first (unlent). The header stays
// copied: a whole VSET restamps it in place.
func (s *Store) lendRange(enc *wireEnc, key string, offset, length int64) (loan []byte, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, from, to, ok, err := s.rangeOf(key, offset, length)
	if !ok {
		return nil, false, err
	}
	head, body := v.parts(from, to)
	enc.bulkHeader(len(head) + len(body))
	enc.hdr = append(enc.hdr, head...)
	if len(body) < zeroCopyMin {
		enc.hdr = append(enc.hdr, body...)
	} else {
		enc.extRef(body)
		s.loans[loanKey(body)]++
		loan = body
	}
	enc.crlf()
	return loan, true, nil
}

// rangeOf counts a range read of key and returns its value with view range
// [offset, offset+length) clamped to the value's end. Called with mu held.
func (s *Store) rangeOf(key string, offset, length int64) (v entry, from, to int64, ok bool, err error) {
	if offset < 0 || length < 0 {
		return v, 0, 0, false, fmt.Errorf("kvstore: negative range offset=%d length=%d", offset, length)
	}
	s.countOp()
	if _, isSet := s.sets[key]; isSet {
		return v, 0, 0, false, ErrWrongType
	}
	if v, ok = s.data[key]; !ok {
		return v, 0, 0, false, nil
	}
	from = min(offset, v.size())
	// length-limited against what is left, so offset+length cannot overflow
	return v, from, from + min(length, v.size()-from), true, nil
}

// loanKey names the buffer v lies in by the buffer's last byte of
// capacity, which every sub-slice reaching to its end shares: a lent
// payload range, and the payload val[18:] a VSET keeps of a headerless
// value that a SETRANGE built to start with a header. An empty buffer,
// never lent, has no key.
func loanKey(v []byte) *byte {
	if cap(v) == 0 {
		return nil
	}
	return &v[:cap(v)][cap(v)-1]
}

// endLoans returns loans lendRange made.
func (s *Store) endLoans(loans [][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range loans {
		k := loanKey(b)
		if n := s.loans[k] - 1; n > 0 {
			s.loans[k] = n
		} else {
			delete(s.loans, k)
		}
	}
}

// unlent returns v, or a copy of it while a reply holds a loan on v's
// buffer. Every in-place write goes through it. Called with mu held.
func (s *Store) unlent(v []byte) []byte {
	if s.loans[loanKey(v)] == 0 {
		return v
	}
	return bytes.Clone(v)
}

// SetRange writes value into key's value at offset, zero-extending the
// value if needed. Creates the key if missing. A write inside the current
// value lands in place — unless a reply has the buffer on loan, which it
// copies first — so no reader sees a torn range. A write over a stripe
// value's header bytes edits the view like any other range.
func (s *Store) SetRange(key string, offset int64, value []byte) error {
	if offset < 0 {
		return fmt.Errorf("kvstore: negative offset %d", offset)
	}
	if offset > maxBulkLen-int64(len(value)) {
		return errTooLarge
	}
	end := offset + int64(len(value))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.countOp()
	if _, isSet := s.sets[key]; isSet {
		return ErrWrongType
	}
	old, exists := s.data[key]
	next := old.grown(end)
	next.val = s.unlent(next.val)
	if err := s.put(key, old, exists, next); err != nil {
		return err
	}
	next.writeAt(offset, value)
	return nil
}

// Del removes keys (string or set) and returns how many existed.
func (s *Store) Del(keys ...string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.countOp()
	n := 0
	for _, key := range keys {
		if v, ok := s.data[key]; ok {
			s.used -= v.size() + int64(len(key)) + EntryOverhead
			delete(s.data, key)
			n++
			continue
		}
		if members, ok := s.sets[key]; ok {
			for m := range members {
				s.used -= int64(len(m))
			}
			s.used -= int64(len(key)) + EntryOverhead
			delete(s.sets, key)
			n++
		}
	}
	return n
}

// vset is VSET, the versioned stripe write. Under the lock it reads the
// generation g in the header of key's value — 0 when the key is absent or
// its value has no valid header — stamps the header (g+1, id) and returns
// g+1. The store, not the writer, picks the generation, so a copy that
// missed a write stays a generation behind even after later writes land on
// it. A header already naming write id keeps g: a retried burst replays
// the write it carries, and must not count it twice. kept, when non-nil,
// is a whole new payload that replaces the old one and is kept as given.
// Otherwise value is written at payload offset off: in place when the
// range lies inside the payload (after unlent, as for SetRange),
// zero-extending it otherwise. An offset write on an absent key writes
// nothing and returns 0: the stripe it patches lives elsewhere, or is
// not written yet, and only the writer can tell which.
func (s *Store) vset(key string, id uint64, off int64, value, kept []byte) (uint64, error) {
	switch {
	case kept != nil:
		if len(kept) > maxBulkLen-erasure.HeaderSize {
			return 0, errTooLarge
		}
	case off < 0:
		return 0, fmt.Errorf("kvstore: negative offset %d", off)
	case off > maxBulkLen-erasure.HeaderSize-int64(len(value)):
		return 0, errTooLarge
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.countOp()
	if _, isSet := s.sets[key]; isSet {
		return 0, ErrWrongType
	}
	old, exists := s.data[key]
	if !exists && kept == nil {
		return 0, nil
	}
	// nothing of a headerless value is worth keeping: body is nil, gen 0
	gen, last, body, ok := old.stripe()
	if !ok || last != id {
		gen++
	}
	next := entry{hdr: old.hdr, val: kept}
	if next.hdr == nil {
		next.hdr = new([erasure.HeaderSize]byte)
	}
	if kept == nil {
		next.val = s.unlent(grow(body, off+int64(len(value))))
	}
	if err := s.put(key, old, exists, next); err != nil {
		return 0, err
	}
	if kept == nil {
		copy(next.val[off:], value)
	}
	erasure.PutHeader(next.hdr[:], gen, id)
	return gen, nil
}

// SAdd adds members to the set at key, creating it if needed. Returns the
// number of members actually added.
func (s *Store) SAdd(key string, members ...string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.countOp()
	if _, isStr := s.data[key]; isStr {
		return 0, ErrWrongType
	}
	set, ok := s.sets[key]
	var delta int64
	if !ok {
		delta += int64(len(key)) + EntryOverhead
	}
	added := 0
	fresh := make(map[string]struct{}, len(members))
	for _, m := range members {
		if set != nil {
			if _, dup := set[m]; dup {
				continue
			}
		}
		if _, dup := fresh[m]; dup {
			continue
		}
		fresh[m] = struct{}{}
		delta += int64(len(m))
		added++
	}
	if delta > 0 && s.wouldOverflow(delta) {
		return 0, ErrOOM
	}
	if !ok {
		set = make(map[string]struct{})
		s.sets[key] = set
	}
	for m := range fresh {
		set[m] = struct{}{}
	}
	s.used += delta
	return added, nil
}

// SRem removes members from the set at key; an empty set is deleted.
// Returns the number removed.
func (s *Store) SRem(key string, members ...string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.countOp()
	if _, isStr := s.data[key]; isStr {
		return 0, ErrWrongType
	}
	set, ok := s.sets[key]
	if !ok {
		return 0, nil
	}
	removed := 0
	for _, m := range members {
		if _, present := set[m]; present {
			delete(set, m)
			s.used -= int64(len(m))
			removed++
		}
	}
	if len(set) == 0 {
		delete(s.sets, key)
		s.used -= int64(len(key)) + EntryOverhead
	}
	return removed, nil
}

// SMembers returns the members of the set at key, sorted for determinism.
func (s *Store) SMembers(key string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.countOp()
	if _, isStr := s.data[key]; isStr {
		return nil, ErrWrongType
	}
	set := s.sets[key]
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out, nil
}

// SCard returns the number of members in the set at key.
func (s *Store) SCard(key string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.countOp()
	if _, isStr := s.data[key]; isStr {
		return 0, ErrWrongType
	}
	return len(s.sets[key]), nil
}

// Incr atomically increments the integer stored at key (missing keys count
// from 0) and returns the new value.
func (s *Store) Incr(key string) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.countOp()
	if _, isSet := s.sets[key]; isSet {
		return 0, ErrWrongType
	}
	var n int64
	old, exists := s.data[key]
	if exists {
		var err error
		n, err = strconv.ParseInt(string(old.appendRange(nil, 0, old.size())), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("kvstore: value at %q is not an integer", key)
		}
	}
	n++
	if err := s.put(key, old, exists, entry{val: strconv.AppendInt(nil, n, 10)}); err != nil {
		return 0, err
	}
	return n, nil
}

// Keys returns all keys (string and set) with the given prefix, sorted.
// The scavenging manager uses this to drain a victim store.
func (s *Store) Keys(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.countOp()
	var out []string
	for k := range s.data {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	for k := range s.sets {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// KeysN returns up to n keys (string and set) with the given prefix, in
// sorted order. The scan still visits every key — the point is bounding
// the reply, so a partial drain of a huge store can work in slices
// instead of marshalling the full listing every pass. n <= 0 means no
// limit.
func (s *Store) KeysN(prefix string, n int) []string {
	out := s.Keys(prefix)
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// DelIfEquals removes key only if it currently holds exactly value, and
// reports whether it did. This is the compare-and-delete the partial
// drain uses after copying a key off a node: if a concurrent write
// changed the value between the copy and the delete, the delete declines
// and the newer value survives. For a stripe value, value may be just the
// erasure.HeaderSize-byte header: core writes one payload per (generation,
// write ID) per key, so a header that still matches names the same bytes,
// and any write since — a VSET stamps a new header — makes it decline.
func (s *Store) DelIfEquals(key string, value []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.countOp()
	old, ok := s.data[key]
	if !ok || !old.matches(value) {
		return false
	}
	s.used -= old.size() + int64(len(key)) + EntryOverhead
	delete(s.data, key)
	return true
}

// FlushAll removes every key.
func (s *Store) FlushAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.countOp()
	s.data = make(map[string]entry)
	s.sets = make(map[string]map[string]struct{})
	s.used = 0
}

// Stats returns a snapshot of the store's state.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		BytesUsed: s.used,
		MaxMemory: s.maxMem,
		NumKeys:   len(s.data),
		NumSets:   len(s.sets),
		TotalOps:  s.ops,
	}
	if s.maxMem > 0 && float64(s.used) > pressureWatermark*float64(s.maxMem) {
		st.Pressure = true
	}
	return st
}
