package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"memfss/internal/core"
)

// workload is one of the four load shapes. A value is built per set-up
// and owns the state that outlives a phase (file versions, shadow copies).
type workload interface {
	// preload creates the live file set and returns its logical bytes.
	preload(e *env) (int64, error)
	// open and closeClient bracket one client's part in a phase.
	open(c *client, phase string) error
	closeClient(c *client, phase string) error
	// step runs one closed-loop iteration: at least one user op.
	step(c *client, phase string)
	// verify re-reads every live file in full, untimed, and counts each
	// checked file in rec.attempted and each mismatch in rec.failed.
	verify(e *env, rec *recorder)
}

// specs lists the workloads in the order they run. The names are fixed:
// later issues cite them.
var specs = []*spec{
	{
		// The paper's Fig. 2 dd bag: whole-file streams, no redundancy.
		name: "dd-bag", own: 2, victims: 6, stripe: 1 << 20,
		clients: 1, files: 64, fileSize: 8 << 20,
		phases: []string{"write", "read"}, probeBytes: 1 << 20,
		tracedSteps: 48, sampleEvery: 4,
	},
	{
		// The same stream under RS(4,2). Background repair is off so a
		// wiped shard stays wiped for the degraded-read phase.
		name: "ec-stream", own: 6, victims: 8, stripe: 1 << 20,
		red:       core.Redundancy{Mode: core.RedundancyErasure, DataShards: 4, ParityShards: 2},
		repairOff: true,
		clients:   1, files: 32, fileSize: 8 << 20,
		phases: []string{"write", "read"}, probeBytes: 256 << 10,
		tracedSteps: 16, sampleEvery: 4,
	},
	{
		// Montage-like small-file storm: namespace ops dominate.
		name: "montage-meta", own: 2, victims: 6, stripe: 1 << 20,
		clients: 2, files: montageFiles, fileSize: 16 << 10,
		phases: []string{"storm"}, probeBytes: 16 << 10,
		tracedSteps: 4, sampleEvery: 8,
	},
	{
		// In-place partial-stripe reads and writes under 2-way replication.
		name: "rmw-mix", own: 2, victims: 6, stripe: 64 << 10,
		red:     core.Redundancy{Mode: core.RedundancyReplicate, Replicas: 2},
		clients: 2, files: 16, fileSize: 8 << 20,
		phases: []string{"mix"}, probeBytes: 64 << 10,
		tracedSteps: 400, sampleEvery: 8,
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

func newWorkload(sp *spec) workload {
	switch sp.name {
	case "dd-bag", "ec-stream":
		return &stream{}
	case "montage-meta":
		return &montage{}
	default:
		return &rmw{}
	}
}

// degradedPhase is ec-stream's extra phase on the traced run: reads after
// one victim store lost its contents.
const degradedPhase = "degraded-read"

// owned lists the file indexes client c drives: files are dealt round
// robin so clients never share a path.
func owned(c *client, files int) []int {
	var out []int
	for i := c.id; i < files; i += c.of {
		out = append(out, i)
	}
	return out
}

// readWhole is the user-level read both stream and verification use:
// Open, ReadAt the whole file into buf, Close. Reads go through a handle
// into a reused buffer; ReadFile would allocate the file size per call and
// measure the allocator.
func readWhole(c *client, path string, fileID int64, buf []byte) (int, error) {
	var f *core.File
	err := c.call(coreCall{op: "open", path: path}, func() (err error) {
		f, err = c.e.fs.Open(path)
		return err
	})
	if err != nil {
		return 0, err
	}
	var n int
	err = c.call(coreCall{op: "readat", path: path, n: int64(len(buf)), fileID: fileID}, func() (err error) {
		n, err = f.ReadAt(buf, 0)
		if errors.Is(err, io.EOF) {
			err = nil
		}
		return err
	})
	cerr := c.call(coreCall{op: "close", path: path}, f.Close)
	if err == nil {
		err = cerr
	}
	return n, err
}

// writeWhole is Create + Write of the whole payload + Close.
func writeWhole(c *client, path string, data []byte) (fileID int64, err error) {
	var f *core.File
	err = c.call(coreCall{op: "create", path: path, write: true}, func() (err error) {
		fileID = c.e.creates.Add(1)
		f, err = c.e.fs.Create(path)
		return err
	})
	if err != nil {
		return 0, err
	}
	err = c.call(coreCall{op: "writeat", path: path, n: int64(len(data)), write: true, fileID: fileID}, func() error {
		_, err := f.WriteAt(data, 0)
		return err
	})
	cerr := c.call(coreCall{op: "close", path: path, write: true}, f.Close)
	if err == nil {
		err = cerr
	}
	return fileID, err
}

// verifyFile re-reads one file outside any timed span and compares every
// byte.
func verifyFile(e *env, rec *recorder, path string, want, buf []byte) {
	rec.attempted++
	f, err := e.fs.Open(path)
	if err != nil {
		rec.fail(fmt.Errorf("verify %s: %w", path, err))
		return
	}
	defer f.Close()
	buf = buf[:len(want)]
	n, err := f.ReadAt(buf, 0)
	if err != nil && !errors.Is(err, io.EOF) {
		rec.fail(fmt.Errorf("verify %s: %w", path, err))
		return
	}
	if f.Size() != int64(len(want)) || n != len(want) || !bytes.Equal(buf, want) {
		rec.fail(fmt.Errorf("verify %s: content mismatch (size %d, read %d, want %d)", path, f.Size(), n, len(want)))
	}
}

// --- dd-bag and ec-stream ---------------------------------------------------

// stream writes and reads whole files, the dd bag of the paper's Fig. 2.
type stream struct {
	versions []uint64
	ids      []int64
}

func streamPath(i int) string { return fmt.Sprintf("/bag/f-%03d", i) }

func (w *stream) preload(e *env) (int64, error) {
	if err := e.fs.MkdirAll("/bag"); err != nil {
		return 0, err
	}
	w.versions = make([]uint64, e.sp.files)
	w.ids = make([]int64, e.sp.files)
	for i := range w.versions {
		w.ids[i] = e.creates.Add(1)
		if err := e.fs.WriteFile(streamPath(i), e.pay.get(uint64(i), 0, e.sp.fileSize)); err != nil {
			return 0, err
		}
	}
	return int64(e.sp.files) * int64(e.sp.fileSize), nil
}

func (w *stream) open(c *client, phase string) error {
	c.state = owned(c, c.e.sp.files)
	return nil
}

func (w *stream) closeClient(c *client, phase string) error { return nil }

func (w *stream) step(c *client, phase string) {
	mine := c.state.([]int)
	i := mine[c.rng.Intn(len(mine))]
	size := c.e.sp.fileSize
	if phase == "write" {
		v := w.versions[i] + 1
		data := c.e.pay.get(uint64(i), v, size)
		c.begin("write")
		id, err := writeWhole(c, streamPath(i), data)
		if err == nil {
			w.versions[i], w.ids[i] = v, id
		}
		c.finish("write", int64(size), err)
		return
	}
	c.begin("read")
	n, err := readWhole(c, streamPath(i), w.ids[i], c.buf[:size])
	c.finish("read", int64(size), err)
	if err == nil {
		c.gen(func() {
			if !edgesMatch(c.buf[:n], c.e.pay.get(uint64(i), w.versions[i], size)) {
				c.rec.fail(fmt.Errorf("read %s: content mismatch", streamPath(i)))
			}
		})
	}
}

func (w *stream) verify(e *env, rec *recorder) {
	buf := make([]byte, e.sp.fileSize)
	for i, v := range w.versions {
		verifyFile(e, rec, streamPath(i), e.pay.get(uint64(i), v, e.sp.fileSize), buf)
	}
}

// --- montage-meta -----------------------------------------------------------

// montageFiles is the files one iteration creates, reads, renames and
// removes; each client also keeps that many resident files.
const montageFiles = 32

// montage is a Montage-like storm of small files: the namespace calls,
// not the bytes, are the work.
type montage struct {
	clients int
}

func montageDir(client int, name string) string { return fmt.Sprintf("/mont/c%d/%s", client, name) }

// montageKey numbers a (client, file) pair for the payload generator.
func montageKey(client, j int) uint64 { return uint64(client)<<16 | uint64(j) }

func (w *montage) preload(e *env) (int64, error) {
	w.clients = e.sp.clients
	for cl := 0; cl < w.clients; cl++ {
		dir := montageDir(cl, "resident")
		if err := e.fs.MkdirAll(dir); err != nil {
			return 0, err
		}
		for j := 0; j < montageFiles; j++ {
			e.creates.Add(1)
			path := fmt.Sprintf("%s/in-%02d", dir, j)
			if err := e.fs.WriteFile(path, e.pay.get(montageKey(cl, j), 0, e.sp.fileSize)); err != nil {
				return 0, err
			}
		}
	}
	return int64(w.clients) * montageFiles * int64(e.sp.fileSize), nil
}

// montageState is the iteration count of one client.
type montageState struct{ iter uint64 }

func (w *montage) open(c *client, phase string) error {
	c.state = &montageState{}
	return nil
}

func (w *montage) closeClient(c *client, phase string) error { return nil }

// meta runs one namespace call as a user op of class "meta".
func (c *client) meta(cc coreCall, fn func() error) error {
	c.begin("meta")
	err := c.call(cc, fn)
	c.finish("meta", 0, err)
	return err
}

func (w *montage) step(c *client, phase string) {
	st := c.state.(*montageState)
	st.iter++
	fs, size := c.e.fs, c.e.sp.fileSize
	dir := montageDir(c.id, "work")
	if c.meta(coreCall{op: "mkdir", path: dir, write: true}, func() error { return fs.MkdirAll(dir) }) != nil {
		return
	}
	ids := make([]int64, montageFiles)
	for j := 0; j < montageFiles; j++ {
		path := fmt.Sprintf("%s/in-%02d", dir, j)
		c.begin("write")
		id, err := writeWhole(c, path, c.e.pay.get(montageKey(c.id, j), st.iter, size))
		c.finish("write", int64(size), err)
		ids[j] = id
	}
	var entries []core.EntryInfo
	err := c.meta(coreCall{op: "readdir", path: dir, entries: montageFiles}, func() (err error) {
		entries, err = fs.ReadDir(dir)
		return err
	})
	if err == nil && len(entries) != montageFiles {
		c.rec.fail(fmt.Errorf("readdir %s: %d entries, want %d", dir, len(entries), montageFiles))
	}
	for _, j := range c.rng.Perm(montageFiles) {
		path := fmt.Sprintf("%s/in-%02d", dir, j)
		var info core.EntryInfo
		err := c.meta(coreCall{op: "stat", path: path}, func() (err error) {
			info, err = fs.Stat(path)
			return err
		})
		if err == nil && info.Size != int64(size) {
			c.rec.fail(fmt.Errorf("stat %s: size %d, want %d", path, info.Size, size))
		}
		c.begin("read")
		n, err := readWhole(c, path, ids[j], c.buf[:size])
		c.finish("read", int64(size), err)
		if err == nil {
			c.gen(func() {
				if !bytes.Equal(c.buf[:n], c.e.pay.get(montageKey(c.id, j), st.iter, size)) {
					c.rec.fail(fmt.Errorf("read %s: content mismatch", path))
				}
			})
		}
		out := fmt.Sprintf("%s/out-%02d", dir, j)
		_ = c.meta(coreCall{op: "rename", path: path, write: true}, func() error { return fs.Rename(path, out) })
	}
	_ = c.meta(coreCall{op: "removeall", path: dir, write: true, entries: montageFiles + 1},
		func() error { return fs.RemoveAll(dir) })
}

// verify checks the resident files byte for byte and that every work
// directory is gone: an iteration leaves nothing behind.
func (w *montage) verify(e *env, rec *recorder) {
	buf := make([]byte, e.sp.fileSize)
	for cl := 0; cl < w.clients; cl++ {
		dir := montageDir(cl, "resident")
		for j := 0; j < montageFiles; j++ {
			verifyFile(e, rec, fmt.Sprintf("%s/in-%02d", dir, j), e.pay.get(montageKey(cl, j), 0, e.sp.fileSize), buf)
		}
		rec.attempted++
		entries, err := e.fs.ReadDir(fmt.Sprintf("/mont/c%d", cl))
		if err != nil || len(entries) != 1 || entries[0].Name != "resident" {
			rec.fail(fmt.Errorf("verify /mont/c%d: entries %v, err %v", cl, entries, err))
		}
	}
}

// --- rmw-mix ----------------------------------------------------------------

// rmw alternates in-place WriteAt and ReadAt of 4–256 KiB on open handles
// and checks every read against an in-memory shadow copy.
type rmw struct {
	shadow [][]byte
}

const (
	rmwMinIO = 4 << 10
	rmwMaxIO = 256 << 10
)

func rmwPath(i int) string { return fmt.Sprintf("/rmw/f-%02d", i) }

func (w *rmw) preload(e *env) (int64, error) {
	if err := e.fs.MkdirAll("/rmw"); err != nil {
		return 0, err
	}
	w.shadow = make([][]byte, e.sp.files)
	for i := range w.shadow {
		w.shadow[i] = append([]byte(nil), e.pay.get(uint64(i), 0, e.sp.fileSize)...)
		e.creates.Add(1)
		if err := e.fs.WriteFile(rmwPath(i), w.shadow[i]); err != nil {
			return 0, err
		}
	}
	return int64(e.sp.files) * int64(e.sp.fileSize), nil
}

// rmwState is one client's open handles and step count.
type rmwState struct {
	files   []int
	handles []*core.File
	steps   uint64
}

func (w *rmw) open(c *client, phase string) error {
	st := &rmwState{files: owned(c, c.e.sp.files)}
	for _, i := range st.files {
		path := rmwPath(i)
		var f *core.File
		err := c.call(coreCall{op: "open", path: path}, func() (err error) {
			f, err = c.e.fs.OpenFile(path, core.O_RDWR)
			return err
		})
		if err != nil {
			return err
		}
		st.handles = append(st.handles, f)
	}
	c.state = st
	return nil
}

func (w *rmw) closeClient(c *client, phase string) error {
	st, _ := c.state.(*rmwState)
	if st == nil {
		return nil
	}
	var first error
	for k, f := range st.handles {
		err := c.call(coreCall{op: "close", path: rmwPath(st.files[k]), write: true}, f.Close)
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (w *rmw) step(c *client, phase string) {
	st := c.state.(*rmwState)
	st.steps++
	k := c.rng.Intn(len(st.files))
	i, f := st.files[k], st.handles[k]
	n := rmwMinIO + c.rng.Intn(rmwMaxIO-rmwMinIO+1)
	off := c.rng.Int63n(int64(c.e.sp.fileSize - n + 1))
	path := rmwPath(i)
	// Files are preloaded in order, so file i has ID i+1.
	id := int64(i + 1)
	if st.steps%2 == 1 {
		data := c.e.pay.get(uint64(i), uint64(c.id)<<48|st.steps, n)
		c.begin("write")
		err := c.call(coreCall{op: "writeat", path: path, off: off, n: int64(n), write: true, fileID: id}, func() error {
			_, err := f.WriteAt(data, off)
			return err
		})
		c.finish("write", int64(n), err)
		if err == nil {
			c.gen(func() { copy(w.shadow[i][off:], data) })
		}
		return
	}
	buf := c.buf[:n]
	c.begin("read")
	err := c.call(coreCall{op: "readat", path: path, off: off, n: int64(n), fileID: id}, func() error {
		_, err := f.ReadAt(buf, off)
		return err
	})
	c.finish("read", int64(n), err)
	if err == nil {
		c.gen(func() {
			if !bytes.Equal(buf, w.shadow[i][off:off+int64(n)]) {
				c.rec.fail(fmt.Errorf("readat %s [%d,+%d): differs from shadow copy", path, off, n))
			}
		})
	}
}

func (w *rmw) verify(e *env, rec *recorder) {
	buf := make([]byte, e.sp.fileSize)
	for i, want := range w.shadow {
		verifyFile(e, rec, rmwPath(i), want, buf)
	}
}
