package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func TestSetGet(t *testing.T) {
	s := NewStore(0)
	if err := s.Set("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get("k")
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}
	if err := s.Set("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	v, _, _ = s.Get("k")
	if string(v) != "v2" {
		t.Fatalf("overwrite lost: %q", v)
	}
	if _, ok, _ := s.Get("absent"); ok {
		t.Fatal("absent key reported present")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := NewStore(0)
	s.Set("k", []byte("abc"))
	v, _, _ := s.Get("k")
	v[0] = 'X'
	v2, _, _ := s.Get("k")
	if string(v2) != "abc" {
		t.Fatal("Get aliases internal buffer")
	}
}

func TestSetCopiesInput(t *testing.T) {
	s := NewStore(0)
	buf := []byte("abc")
	s.Set("k", buf)
	buf[0] = 'X'
	v, _, _ := s.Get("k")
	if string(v) != "abc" {
		t.Fatal("Set aliases caller buffer")
	}
}

func TestSetNX(t *testing.T) {
	s := NewStore(0)
	ok, err := s.setNX("k", entry{val: []byte("first")})
	if err != nil || !ok {
		t.Fatalf("first SetNX: %v %v", ok, err)
	}
	ok, err = s.setNX("k", entry{val: []byte("second")})
	if err != nil || ok {
		t.Fatalf("second SetNX should not store: %v %v", ok, err)
	}
	v, _, _ := s.Get("k")
	if string(v) != "first" {
		t.Fatalf("SetNX overwrote: %q", v)
	}
	s.SAdd("set", "m")
	if ok, _ := s.setNX("set", entry{val: []byte("x")}); ok {
		t.Fatal("SetNX stored over a set key")
	}
}

func TestDelAccounting(t *testing.T) {
	s := NewStore(0)
	s.Set("a", []byte("xxxx"))
	s.SAdd("s", "m1", "m2")
	if n := s.Del("a", "s", "absent"); n != 2 {
		t.Fatalf("Del = %d, want 2", n)
	}
	if st := s.Stats(); st.BytesUsed != 0 || st.NumKeys != 0 || st.NumSets != 0 {
		t.Fatalf("accounting leak after Del: %+v", st)
	}
}

func TestGetRange(t *testing.T) {
	s := NewStore(0)
	s.Set("k", []byte("hello world"))
	cases := []struct {
		off, n int64
		want   string
	}{
		{0, 5, "hello"}, {6, 5, "world"}, {6, 100, "world"}, {11, 5, ""}, {100, 5, ""},
	}
	for _, c := range cases {
		v, ok, err := s.GetRangeAppend(nil, "k", c.off, c.n)
		if err != nil || !ok || string(v) != c.want {
			t.Errorf("GetRange(%d,%d) = %q %v %v, want %q", c.off, c.n, v, ok, err, c.want)
		}
	}
	if _, ok, _ := s.GetRangeAppend(nil, "absent", 0, 1); ok {
		t.Error("GetRange on absent key reported present")
	}
	if _, _, err := s.GetRangeAppend(nil, "k", -1, 1); err == nil {
		t.Error("negative offset accepted")
	}
}

func TestSetRange(t *testing.T) {
	s := NewStore(0)
	if err := s.SetRange("k", 5, []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, _, _ := s.Get("k")
	if !bytes.Equal(v, append(make([]byte, 5), []byte("world")...)) {
		t.Fatalf("zero-extension wrong: %q", v)
	}
	if err := s.SetRange("k", 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, _, _ = s.Get("k")
	if string(v) != "helloworld" {
		t.Fatalf("in-place write wrong: %q", v)
	}
	if err := s.SetRange("k", -1, []byte("x")); err == nil {
		t.Error("negative offset accepted")
	}
}

func TestSets(t *testing.T) {
	s := NewStore(0)
	n, err := s.SAdd("s", "b", "a", "b")
	if err != nil || n != 2 {
		t.Fatalf("SAdd = %d %v", n, err)
	}
	members, err := s.SMembers("s")
	if err != nil || len(members) != 2 || members[0] != "a" || members[1] != "b" {
		t.Fatalf("SMembers = %v %v", members, err)
	}
	if card, _ := s.SCard("s"); card != 2 {
		t.Fatalf("SCard = %d", card)
	}
	n, err = s.SRem("s", "a", "zz")
	if err != nil || n != 1 {
		t.Fatalf("SRem = %d %v", n, err)
	}
	// Removing the last member deletes the set key entirely.
	s.SRem("s", "b")
	if st := s.Stats(); st.NumSets != 0 {
		t.Fatal("empty set not deleted")
	}
	if st := s.Stats(); st.BytesUsed != 0 {
		t.Fatalf("set accounting leak: %+v", st)
	}
}

func TestWrongTypeErrors(t *testing.T) {
	s := NewStore(0)
	s.Set("str", []byte("v"))
	s.SAdd("set", "m")
	if _, err := s.SAdd("str", "m"); !errors.Is(err, ErrWrongType) {
		t.Errorf("SAdd on string: %v", err)
	}
	if _, err := s.SMembers("str"); !errors.Is(err, ErrWrongType) {
		t.Errorf("SMembers on string: %v", err)
	}
	if err := s.Set("set", []byte("v")); !errors.Is(err, ErrWrongType) {
		t.Errorf("Set on set: %v", err)
	}
	if _, _, err := s.Get("set"); !errors.Is(err, ErrWrongType) {
		t.Errorf("Get on set: %v", err)
	}
	if _, err := s.Incr("set"); !errors.Is(err, ErrWrongType) {
		t.Errorf("Incr on set: %v", err)
	}
}

func TestIncr(t *testing.T) {
	s := NewStore(0)
	for want := int64(1); want <= 3; want++ {
		n, err := s.Incr("ctr")
		if err != nil || n != want {
			t.Fatalf("Incr = %d %v, want %d", n, err, want)
		}
	}
	s.Set("bad", []byte("not a number"))
	if _, err := s.Incr("bad"); err == nil {
		t.Error("Incr on non-integer accepted")
	}
}

func TestKeysPrefix(t *testing.T) {
	s := NewStore(0)
	s.Set("meta:/a", []byte("1"))
	s.Set("meta:/b", []byte("1"))
	s.Set("data:x", []byte("1"))
	s.SAdd("dir:/", "a", "b")
	got := s.KeysN("meta:", 0)
	if len(got) != 2 || got[0] != "meta:/a" || got[1] != "meta:/b" {
		t.Fatalf("KeysN(meta:) = %v", got)
	}
	if all := s.KeysN("", 0); len(all) != 4 {
		t.Fatalf("KeysN(\"\") = %v", all)
	}
}

func TestMemoryCapSet(t *testing.T) {
	s := NewStore(200)
	if err := s.Set("k", make([]byte, 100)); err != nil {
		t.Fatalf("first set should fit: %v", err)
	}
	if err := s.Set("k2", make([]byte, 100)); !errors.Is(err, ErrOOM) {
		t.Fatalf("expected OOM, got %v", err)
	}
	// Overwriting with a smaller value must always be allowed.
	if err := s.Set("k", make([]byte, 10)); err != nil {
		t.Fatalf("shrinking overwrite rejected: %v", err)
	}
}

func TestMemoryCapOtherOps(t *testing.T) {
	s := NewStore(150)
	if _, err := s.setNX("k", entry{val: make([]byte, 200)}); !errors.Is(err, ErrOOM) {
		t.Errorf("SetNX over cap: %v", err)
	}
	if err := s.SetRange("k", 0, make([]byte, 200)); !errors.Is(err, ErrOOM) {
		t.Errorf("SetRange over cap: %v", err)
	}
	if _, err := s.SAdd("s", string(make([]byte, 200))); !errors.Is(err, ErrOOM) {
		t.Errorf("SAdd over cap: %v", err)
	}
	if st := s.Stats(); st.BytesUsed != 0 {
		t.Errorf("failed writes must not consume memory: %+v", st)
	}
}

func TestSetMaxMemoryShrink(t *testing.T) {
	s := NewStore(0)
	s.Set("k", make([]byte, 1000))
	s.SetMaxMemory(100)
	if err := s.Set("k2", []byte("x")); !errors.Is(err, ErrOOM) {
		t.Errorf("write after shrink: %v", err)
	}
	if st := s.Stats(); !st.Pressure {
		t.Error("pressure not reported after shrink below usage")
	}
}

func TestPressureWatermark(t *testing.T) {
	s := NewStore(1000)
	s.Set("k", make([]byte, 500))
	if s.Stats().Pressure {
		t.Error("pressure at 50%")
	}
	if err := s.Set("k2", make([]byte, 350)); err != nil {
		t.Fatal(err)
	}
	if !s.Stats().Pressure {
		t.Errorf("no pressure at %d/1000", s.Stats().BytesUsed)
	}
}

func TestFlushAll(t *testing.T) {
	s := NewStore(0)
	s.Set("a", []byte("1"))
	s.SAdd("s", "m")
	s.FlushAll()
	st := s.Stats()
	if st.BytesUsed != 0 || st.NumKeys != 0 || st.NumSets != 0 {
		t.Fatalf("FlushAll left state: %+v", st)
	}
}

// Property: memory accounting never goes negative and reaches exactly zero
// after deleting everything, across random op sequences.
func TestAccountingInvariant(t *testing.T) {
	f := func(ops []uint8, payload []byte) bool {
		s := NewStore(0)
		for i, op := range ops {
			key := fmt.Sprintf("k%d", int(op)%5)
			switch op % 6 {
			case 0:
				s.Set(key, payload)
			case 1:
				s.SetRange(key, int64(i%7), payload)
			case 2:
				s.SAdd("set"+key, key, fmt.Sprintf("m%d", i))
			case 3:
				s.Del(key)
			case 4:
				s.SRem("set"+key, key)
			case 5:
				s.Incr("ctr" + key)
			}
			if s.Stats().BytesUsed < 0 {
				return false
			}
		}
		for _, k := range s.KeysN("", 0) {
			s.Del(k)
		}
		return s.Stats().BytesUsed == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Set/Get round-trips arbitrary binary payloads.
func TestBinarySafety(t *testing.T) {
	f := func(key string, val []byte) bool {
		if key == "" {
			key = "k"
		}
		s := NewStore(0)
		if err := s.Set(key, val); err != nil {
			return false
		}
		got, ok, err := s.Get(key)
		return err == nil && ok && bytes.Equal(got, val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentStoreAccess(t *testing.T) {
	s := NewStore(0)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i%10)
				s.Set(key, []byte("v"))
				s.Get(key)
				s.SAdd("shared", key)
				s.Incr("ctr")
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	n, _, _ := s.Get("ctr")
	if string(n) != "4000" {
		t.Fatalf("ctr = %s, want 4000", n)
	}
}

func BenchmarkStoreSet1MiB(b *testing.B) {
	s := NewStore(0)
	val := make([]byte, 1<<20)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Set(fmt.Sprintf("k%d", i%64), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreGet1MiB(b *testing.B) {
	s := NewStore(0)
	s.Set("k", make([]byte, 1<<20))
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, _ := s.Get("k"); !ok {
			b.Fatal("missing")
		}
	}
}
