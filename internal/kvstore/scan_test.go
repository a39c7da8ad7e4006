package kvstore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"memfss/internal/erasure"
)

// TestScanListsStableStripesOnce pages SCAN over the wire, ten entries a
// page, while a writer churns the store: it creates stripe values, rewrites
// them (a SET over a stripe, whole and ranged VSETs), turns some into plain
// values with a SET and deletes others, so freed slots are reused behind
// and ahead of the cursor. Every key that holds a stripe value for the
// whole scan — rewritten in place or not, the empty key among them — is
// listed exactly once per full scan.
func TestScanListsStableStripesOnce(t *testing.T) {
	srv, cli := startServer(t, 0, "")
	st := srv.Store()
	stripe := func(id uint64) []byte { return erasure.WrapShard(1, id, []byte("payload")) }
	const stable, churn = 300, 300
	stableKey := func(i int) string {
		if i == 0 {
			return "" // a freed slot holds "" too
		}
		return fmt.Sprintf("stable:%d", i)
	}
	for i := 0; i < stable; i++ {
		if err := st.Set(stableKey(i), stripe(1)); err != nil {
			t.Fatal(err)
		}
		if err := st.Set(fmt.Sprintf("churn:%d", i), stripe(1)); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; !stop.Load(); n++ {
			i := n % stable
			switch key := fmt.Sprintf("churn:%d", n%churn); n % 6 {
			case 0: // rewrites that keep a stable key a stripe value
				_ = st.Set(stableKey(i), stripe(uint64(n)))
			case 1:
				_, _ = st.vset(stableKey(i), uint64(n), 0, nil, []byte("whole"))
			case 2:
				_, _ = st.vset(stableKey(i), uint64(n), 3, []byte("ranged"), nil)
			case 3:
				st.Del(key)
			case 4:
				_ = st.Set(key, []byte("plain")) // no longer a stripe value
			case 5:
				_ = st.Set(key, stripe(uint64(n))) // created or listed anew
				_ = st.Set(fmt.Sprintf("new:%d", n), stripe(1))
				st.Del(fmt.Sprintf("new:%d", n-6))
			}
		}
	}()
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	for scan := 0; scan < 20; scan++ {
		seen := make(map[string]int)
		for cursor, pages := int64(0), 0; ; pages++ {
			// Freed slots are reused: the order never holds many more
			// slots than there are stripe values, about 610 here.
			if pages > 100 {
				t.Fatalf("scan %d not done after %d pages", scan, pages)
			}
			keys, next, err := cli.Scan(cursor, 10)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				seen[k]++
			}
			if cursor = next; cursor == 0 {
				break
			}
		}
		for i := 0; i < stable; i++ {
			if n := seen[stableKey(i)]; n != 1 {
				t.Fatalf("scan %d listed stable key %q %d times", scan, stableKey(i), n)
			}
		}
	}
}

// BenchmarkStoreScanPage measures one 256-slot SCAN page of a store
// holding 10⁴, 10⁵ and 10⁶ stripe values. A page walks only its own
// slots, so its cost does not grow with the store.
func BenchmarkStoreScanPage(b *testing.B) {
	h := erasure.WrapShard(1, 1, nil)
	for _, n := range []int{1e4, 1e5, 1e6} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			s := NewStore(0)
			for i := 0; i < n; i++ {
				s.set(fmt.Sprintf("data:f-%d#%d", i/64, i%64), entry{hdr: newHdr(h), val: []byte{}})
			}
			b.ReportAllocs()
			b.ResetTimer()
			var cursor int64
			for i := 0; i < b.N; i++ {
				var keys []string
				keys, cursor = s.Scan(cursor, 256)
				if len(keys) == 0 {
					b.Fatal("empty page")
				}
			}
		})
	}
}
