package core

import (
	"fmt"
	"io"
)

// Flag controls OpenFile, mirroring the os.O_* subset the FUSE layer
// would translate.
type Flag int

// OpenFile flags. O_RDONLY is the zero value.
const (
	O_RDONLY Flag = 0
	O_WRONLY Flag = 1 << iota
	O_RDWR
	O_CREATE
	O_TRUNC
	O_APPEND
)

func (f Flag) writable() bool { return f&(O_WRONLY|O_RDWR) != 0 }

// OpenFile opens path with POSIX-style semantics:
//
//   - O_RDONLY: the file must exist; the handle rejects writes.
//   - O_WRONLY / O_RDWR: writable handle on an existing file.
//   - O_CREATE: create the file if missing (implies writability).
//   - O_TRUNC: discard existing contents.
//   - O_APPEND: position the cursor at end of file.
func (fs *FileSystem) OpenFile(path string, flag Flag) (*File, error) {
	p, err := fs.resolve(path)
	if err != nil {
		return nil, err
	}
	if flag&O_TRUNC != 0 && !flag.writable() && flag&O_CREATE == 0 {
		return nil, fmt.Errorf("memfss: O_TRUNC requires a writable open of %s", p)
	}

	rec, statErr := fs.meta.statRecord(p)
	switch {
	case statErr == nil && rec.IsDir():
		return nil, fmt.Errorf("%w: %s", ErrIsDir, p)
	case statErr == nil && flag&O_TRUNC != 0:
		f, err := fs.Create(p) // truncate = fresh file
		if err != nil {
			return nil, err
		}
		return f, nil
	case statErr == nil:
		f, err := fs.newFile(p, rec.File, flag.writable())
		if err != nil {
			return nil, err
		}
		if flag&O_APPEND != 0 {
			if _, err := f.Seek(0, io.SeekEnd); err != nil {
				return nil, err
			}
		}
		return f, nil
	case isNotExist(statErr) && flag&O_CREATE != 0:
		return fs.Create(p)
	default:
		return nil, statErr
	}
}

// WalkFunc visits one namespace entry; returning an error aborts the walk
// with that error.
type WalkFunc func(entry EntryInfo) error

// Walk visits every entry under root in depth-first, lexical order,
// starting with root itself.
func (fs *FileSystem) Walk(root string, fn WalkFunc) error {
	e, err := fs.Stat(root)
	if err != nil {
		return err
	}
	return fs.walk(e, fn)
}

func (fs *FileSystem) walk(e EntryInfo, fn WalkFunc) error {
	if err := fn(e); err != nil {
		return err
	}
	if !e.IsDir {
		return nil
	}
	children, err := fs.meta.readDir(e.Path)
	if err != nil {
		return err
	}
	for _, c := range children {
		if err := fs.walk(c, fn); err != nil {
			return err
		}
	}
	return nil
}

// Truncate changes the file at path to exactly size bytes: shrinking
// drops stripes past the new end; growing produces a hole that reads as
// zeros.
func (fs *FileSystem) Truncate(path string, size int64) error {
	p, err := fs.resolve(path)
	if err != nil {
		return err
	}
	if size < 0 {
		return fmt.Errorf("memfss: negative truncate size %d", size)
	}
	rec, err := fs.meta.statRecord(p)
	if err != nil {
		return err
	}
	if rec.File == nil {
		return fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	oldSize := rec.File.Size
	if size < oldSize {
		// Shrink in three ordered steps: (1) cut the boundary stripe to its
		// kept prefix, read and written back through the stripe engine as a
		// whole-stripe write under the new size — one rule for both modes: it
		// replaces the stripe on every copy or shard it reaches, and leaves
		// one it misses a generation behind, queued for repair — (2) shrink
		// the recorded size, (3) delete the dropped stripes. Metadata shrinks
		// *before* stripes disappear, so a concurrent Scrub that finds a
		// stripe's keys gone re-stats the file and sees the stripe is no
		// longer expected — never a false "unrepairable". A crash between
		// (2) and (3) leaves orphan stripes for Fsck to count, not data loss.
		if keep := size % rec.File.StripeSize; keep != 0 {
			f, err := fs.newFile(p, rec.File, true)
			kept := make([]byte, keep)
			if err == nil {
				_, err = f.ReadAt(kept, size-keep)
			}
			if err == nil {
				f.size = size
				_, err = f.WriteAt(kept, size-keep)
			}
			if err != nil {
				return err
			}
		}
	} else if size > oldSize {
		// Grow: a shrink that crashed between its metadata update and its
		// stripe deletes can leave stale stripes in the region the file is
		// growing back over; clear them so the new hole reads as zeros.
		if err := fs.deleteStripeRange(rec.File, oldSize, size, false); err != nil {
			return err
		}
	}
	rec.File.Size = size
	if err := fs.meta.updateRecord(p, rec); err != nil {
		return err
	}
	fs.repairs.committed(rec.File.ID)
	if size < oldSize {
		return fs.deleteStripeRange(rec.File, size, oldSize, false)
	}
	return nil
}
