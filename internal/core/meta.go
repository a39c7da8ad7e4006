package core

import (
	"fmt"
	"sort"
	"strconv"

	"memfss/internal/fsmeta"
	"memfss/internal/kvstore"
)

// metaService implements the metadata side of MemFSS (paper §III-D):
// records are stored only on own nodes, sharded by a modulo hash of the
// path, so latency-bound namespace operations never touch victim nodes.
type metaService struct {
	ownIDs []string // own node IDs in class order; shard targets
	conns  *connPool
}

// EntryInfo describes one namespace entry, as returned by Stat and ReadDir.
type EntryInfo struct {
	// Name is the final path element.
	Name string
	// Path is the full cleaned path.
	Path string
	// Size is the file length in bytes (0 for directories).
	Size int64
	// IsDir reports whether the entry is a directory.
	IsDir bool
}

func newMetaService(ownIDs []string, conns *connPool) *metaService {
	ids := make([]string, len(ownIDs))
	copy(ids, ownIDs)
	return &metaService{ownIDs: ids, conns: conns}
}

// shardClient returns the own-node client responsible for a metadata key's
// path.
func (m *metaService) shardClient(path string) (*kvstore.Client, error) {
	return m.conns.client(m.ownIDs[fsmeta.Shard(path, len(m.ownIDs))])
}

// allocFileID reserves a fresh, cluster-unique file ID. The counter lives
// on the first own node; when that node has no registered client the error
// classifies as unavailability (kvstore.ErrUnavailable) so callers and
// retry policy treat it like any other unreachable-store failure rather
// than a namespace error.
func (m *metaService) allocFileID() (string, error) {
	cli, err := m.conns.client(m.ownIDs[0])
	if err != nil {
		return "", fmt.Errorf("core: allocate file ID: %w: own node %s: %v",
			kvstore.ErrUnavailable, m.ownIDs[0], err)
	}
	n, err := cli.Incr("nextid")
	if err != nil {
		return "", fmt.Errorf("core: allocate file ID: %w", err)
	}
	return "f-" + strconv.FormatInt(n, 10), nil
}

// indexFileID records the ID -> path mapping used by evacuation to resolve
// a stripe key back to its file record.
func (m *metaService) indexFileID(id, path string) error {
	cli, err := m.shardClient(id)
	if err != nil {
		return err
	}
	return cli.Set("fileid:"+id, []byte(path))
}

// lookupFileID resolves a file ID to its current path.
func (m *metaService) lookupFileID(id string) (string, error) {
	cli, err := m.shardClient(id)
	if err != nil {
		return "", err
	}
	v, ok, err := cli.Get("fileid:" + id)
	if err != nil {
		return "", err
	}
	if !ok {
		return "", fmt.Errorf("%w: file id %s", ErrNotExist, id)
	}
	return string(v), nil
}

func (m *metaService) dropFileID(id string) error {
	cli, err := m.shardClient(id)
	if err != nil {
		return err
	}
	_, err = cli.Del("fileid:" + id)
	return err
}

// statRecord fetches the record at path. The root directory exists
// implicitly.
func (m *metaService) statRecord(path string) (*fsmeta.Record, error) {
	if path == "/" {
		return &fsmeta.Record{Directory: &fsmeta.DirRecord{Dir: true}}, nil
	}
	cli, err := m.shardClient(path)
	if err != nil {
		return nil, err
	}
	v, ok, err := cli.Get(fsmeta.MetaKey(path))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	return fsmeta.Decode(v)
}

// requireDir fails unless path exists and is a directory.
func (m *metaService) requireDir(path string) error {
	rec, err := m.statRecord(path)
	if err != nil {
		return err
	}
	if !rec.IsDir() {
		return fmt.Errorf("%w: %s", ErrNotDir, path)
	}
	return nil
}

// createEntry atomically claims path with the given record (the parent
// must already exist as a directory) and links it into the parent listing.
func (m *metaService) createEntry(path string, rec *fsmeta.Record) error {
	if path == "/" {
		return fmt.Errorf("%w: /", ErrExist)
	}
	parent := fsmeta.Parent(path)
	if err := m.requireDir(parent); err != nil {
		return err
	}
	data, err := rec.Encode()
	if err != nil {
		return err
	}
	cli, err := m.shardClient(path)
	if err != nil {
		return err
	}
	stored, err := cli.SetNX(fsmeta.MetaKey(path), data)
	if err != nil {
		return err
	}
	if !stored {
		return fmt.Errorf("%w: %s", ErrExist, path)
	}
	return m.linkChild(parent, fsmeta.Base(path))
}

func (m *metaService) linkChild(parent, name string) error {
	cli, err := m.shardClient(parent)
	if err != nil {
		return err
	}
	_, err = cli.SAdd(fsmeta.DirKey(parent), name)
	return err
}

func (m *metaService) unlinkChild(parent, name string) error {
	cli, err := m.shardClient(parent)
	if err != nil {
		return err
	}
	_, err = cli.SRem(fsmeta.DirKey(parent), name)
	return err
}

// updateRecord overwrites the record at path (read-modify-write callers
// assume a single writer per file, as POSIX does for unsynchronized
// writers).
func (m *metaService) updateRecord(path string, rec *fsmeta.Record) error {
	data, err := rec.Encode()
	if err != nil {
		return err
	}
	cli, err := m.shardClient(path)
	if err != nil {
		return err
	}
	return cli.Set(fsmeta.MetaKey(path), data)
}

// readDir lists the entries of the directory at path, sorted by name.
func (m *metaService) readDir(path string) ([]EntryInfo, error) {
	if err := m.requireDir(path); err != nil {
		return nil, err
	}
	cli, err := m.shardClient(path)
	if err != nil {
		return nil, err
	}
	names, err := cli.SMembers(fsmeta.DirKey(path))
	if err != nil {
		return nil, err
	}
	children := make([]string, len(names))
	for i, name := range names {
		child := path + "/" + name
		if path == "/" {
			child = "/" + name
		}
		children[i] = child
	}
	entries, err := m.statChildren(names, children)
	if err != nil {
		return nil, err
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	return entries, nil
}

// statChildren stats directory entries with one MGet per metadata shard
// instead of one Get round trip per entry — the listing costs O(shards)
// round trips, not O(entries). Entries whose record is gone by fetch time
// (a concurrent remove racing the listing) come back nil and are skipped;
// transport and decode errors surface.
func (m *metaService) statChildren(names, children []string) ([]EntryInfo, error) {
	// Group entry indexes by the own node that shards their metadata key.
	byShard := make(map[int][]int)
	for i, child := range children {
		s := fsmeta.Shard(child, len(m.ownIDs))
		byShard[s] = append(byShard[s], i)
	}
	entries := make([]EntryInfo, 0, len(names))
	for s, idxs := range byShard {
		cli, err := m.conns.client(m.ownIDs[s])
		if err != nil {
			return nil, err
		}
		keys := make([]string, len(idxs))
		for j, i := range idxs {
			keys[j] = fsmeta.MetaKey(children[i])
		}
		vals, err := cli.MGet(keys...)
		if err != nil {
			return nil, err
		}
		for j, i := range idxs {
			if vals[j] == nil {
				continue // ghost: removed between listing and fetch
			}
			rec, err := fsmeta.Decode(vals[j])
			if err != nil {
				return nil, err
			}
			entries = append(entries, entryInfo(names[i], children[i], rec))
		}
	}
	return entries, nil
}

func entryInfo(name, path string, rec *fsmeta.Record) EntryInfo {
	e := EntryInfo{Name: name, Path: path, IsDir: rec.IsDir()}
	if rec.File != nil {
		e.Size = rec.File.Size
	}
	return e
}

// requireEmpty fails if the directory at path still lists children.
func (m *metaService) requireEmpty(path string) error {
	cli, err := m.shardClient(path)
	if err != nil {
		return err
	}
	n, err := cli.SCard(fsmeta.DirKey(path))
	if err != nil {
		return err
	}
	if n > 0 {
		return fmt.Errorf("%w: %s", ErrNotEmpty, path)
	}
	return nil
}

// unlink drops the namespace entry at path, whose record the caller has
// already read: a directory's listing key, the record, then the parent's
// link. The file-ID index and the file's stripes are the caller's business
// (a remove drops them, a rename keeps them).
func (m *metaService) unlink(path string, rec *fsmeta.Record) error {
	cli, err := m.shardClient(path)
	if err != nil {
		return err
	}
	if rec.IsDir() {
		if _, err := cli.Del(fsmeta.DirKey(path)); err != nil {
			return err
		}
	}
	if _, err := cli.Del(fsmeta.MetaKey(path)); err != nil {
		return err
	}
	return m.unlinkChild(fsmeta.Parent(path), fsmeta.Base(path))
}

// rename moves a file or directory subtree. File data never moves: stripe
// keys are derived from the immutable file ID, so rename is a pure
// metadata operation regardless of file size.
func (m *metaService) rename(oldPath, newPath string) error {
	if oldPath == "/" || newPath == "/" {
		return fmt.Errorf("%w: cannot rename /", ErrExist)
	}
	rec, err := m.statRecord(oldPath)
	if err != nil {
		return err
	}
	if err := m.createEntry(newPath, rec); err != nil {
		return err
	}
	if rec.File != nil {
		if err := m.indexFileID(rec.File.ID, newPath); err != nil {
			return err
		}
	}
	if rec.IsDir() {
		children, err := m.readDir(oldPath)
		if err != nil {
			return err
		}
		for _, child := range children {
			if err := m.rename(child.Path, newPath+"/"+child.Name); err != nil {
				return err
			}
		}
	}
	// The old entry is now redundant; drop it without touching data.
	return m.unlink(oldPath, rec)
}
