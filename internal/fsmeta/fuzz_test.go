package fsmeta

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the record decoder: it must never
// panic, and whatever it accepts must encode and decode back to the same
// record, and encode the same bytes again.
func FuzzDecode(f *testing.F) {
	for _, r := range []*Record{
		{Directory: &DirRecord{Dir: true}},
		{File: &FileRecord{ID: "f-1", Size: 1 << 20, StripeSize: 4096, Replicas: 2}},
		{File: &FileRecord{ID: "ec", Size: 7, StripeSize: 1 << 20, Replicas: 1, DataShards: 4, ParityShards: 2,
			Classes: []ClassSnapshot{{Name: "own", Weight: 0.25, Nodes: []string{"own-0", "own-1"}}, {Name: "victim", Weight: 0.75}}}},
	} {
		b, err := r.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"file":{},"directory":{}}`))
	f.Add([]byte(`{"FILE":{"id":"\xff","size":-1,"classes":[]}}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Decode(data)
		if err != nil {
			return
		}
		if r.IsDir() == (r.File != nil) {
			t.Fatalf("Decode accepted %q with file=%v dir=%v", data, r.File != nil, r.IsDir())
		}
		enc, err := r.Encode()
		if err != nil {
			t.Fatalf("Encode of a decoded record: %v", err)
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(Encode(r)) of %q: %v", enc, err)
		}
		if !reflect.DeepEqual(again, r) {
			t.Fatalf("Decode(Encode(r)) = %+v, want %+v", again, r)
		}
		if enc2, err := again.Encode(); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("re-encoding %q gave %q (%v)", enc, enc2, err)
		}
	})
}

// FuzzClean feeds arbitrary strings to the path canonicalizer: it must
// never panic; what it accepts is absolute, has no ".", ".." or empty
// segments and no trailing slash, cleans to itself, and its Parent and
// Base recompose it.
func FuzzClean(f *testing.F) {
	for _, p := range []string{"", "/", "//", "/.", "/..", "/a/../..", "a/b", "/a//b/./c/", "/a/b/..", "/\x00/é/..."} {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, path string) {
		c, err := Clean(path)
		if err != nil {
			return
		}
		if again, err := Clean(c); err != nil || again != c {
			t.Fatalf("Clean(%q) = %q, but Clean(%q) = %q, %v", path, c, c, again, err)
		}
		parent, base := Parent(c), Base(c)
		if c == "/" {
			if parent != "/" || base != "" {
				t.Fatalf("root: Parent %q Base %q", parent, base)
			}
			return
		}
		for _, seg := range strings.Split(c[1:], "/") {
			if seg == "" || seg == "." || seg == ".." {
				t.Fatalf("Clean(%q) = %q has segment %q", path, c, seg)
			}
		}
		if !strings.HasPrefix(c, "/") || strings.HasSuffix(c, "/") {
			t.Fatalf("Clean(%q) = %q is not absolute or ends in a slash", path, c)
		}
		joined := parent + "/" + base
		if parent == "/" {
			joined = "/" + base
		}
		if base == "" || joined != c {
			t.Fatalf("Parent %q and Base %q of %q recompose %q", parent, base, c, joined)
		}
		if p, err := Clean(parent); err != nil || p != parent {
			t.Fatalf("Parent(%q) = %q is not clean: %q, %v", c, parent, p, err)
		}
	})
}
