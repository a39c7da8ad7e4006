package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"memfss/internal/obs"
	"memfss/internal/qos"
)

func withQoS(reg *qos.Registry) deployOpt {
	return func(c *Config) { c.QoS.Tenants = reg }
}

func withObsRegistry(reg *obs.Registry) deployOpt {
	return func(c *Config) { c.Obs.Registry = reg }
}

// TestTenantQuotaEnforced: writes growing a tenant past its quota fail
// with ErrQuotaExceeded, and removal credits the bytes back.
func TestTenantQuotaEnforced(t *testing.T) {
	tenants := qos.NewRegistry(qos.Options{})
	defer tenants.Close()
	d := newTestFS(t, 2, 2, withQoS(tenants))
	if err := d.fs.SaveTenant(qos.TenantSpec{Name: "hpc", QuotaBytes: 100 << 10}); err != nil {
		t.Fatal(err)
	}
	big := randomBytes(1, 80<<10)
	if err := d.fs.WriteFile("/tenants/hpc/a", big); err != nil {
		t.Fatal(err)
	}
	if got := tenants.Used("hpc"); got != 80<<10 {
		t.Fatalf("used after 80 KiB write = %d", got)
	}
	err := d.fs.WriteFile("/tenants/hpc/b", randomBytes(2, 40<<10))
	if !errors.Is(err, qos.ErrQuotaExceeded) {
		t.Fatalf("over-quota write: %v, want ErrQuotaExceeded", err)
	}
	// The rejected write reserved nothing.
	if got := tenants.Used("hpc"); got != 80<<10 {
		t.Fatalf("used after rejected write = %d", got)
	}
	// Freeing space makes room again.
	if err := d.fs.Remove("/tenants/hpc/a"); err != nil {
		t.Fatal(err)
	}
	if got := tenants.Used("hpc"); got != 0 {
		t.Fatalf("used after remove = %d", got)
	}
	if err := d.fs.WriteFile("/tenants/hpc/b", randomBytes(2, 40<<10)); err != nil {
		t.Fatal(err)
	}
	// Overwriting in place (Create truncates) credits the old size first.
	if err := d.fs.WriteFile("/tenants/hpc/b", randomBytes(3, 90<<10)); err != nil {
		t.Fatal(err)
	}
	if got := tenants.Used("hpc"); got != 90<<10 {
		t.Fatalf("used after overwrite = %d", got)
	}
	// Unattributed paths are never quota-checked.
	if err := d.fs.WriteFile("/scratch", randomBytes(4, 64<<10)); err != nil {
		t.Fatal(err)
	}
}

// TestTenantPersistence: SaveTenant survives a client restart via
// LoadTenants; DeleteTenant removes the record.
func TestTenantPersistence(t *testing.T) {
	tenants := qos.NewRegistry(qos.Options{})
	defer tenants.Close()
	d := newTestFS(t, 2, 0, withQoS(tenants))
	specs := []qos.TenantSpec{
		{Name: "batch", QuotaBytes: 1 << 20, Weight: 1, Priority: qos.PriorityLow},
		{Name: "prod", QuotaBytes: 0, Weight: 4, Priority: qos.PriorityHigh},
	}
	for _, s := range specs {
		if err := d.fs.SaveTenant(s); err != nil {
			t.Fatal(err)
		}
	}
	// The tenant namespace roots exist, so attribution works immediately.
	for _, s := range specs {
		if st, err := d.fs.Stat(qos.TenantRoot(s.Name)); err != nil || !st.IsDir {
			t.Fatalf("tenant root %s: %+v, %v", s.Name, st, err)
		}
	}
	// A second client against the same stores, fresh registry: LoadTenants
	// restores the directory.
	tenants2 := qos.NewRegistry(qos.Options{})
	defer tenants2.Close()
	cfg := d.fs.cfg
	cfg.QoS.Tenants = tenants2
	fs2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	loaded, err := fs2.LoadTenants()
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 2 || loaded[0] != specs[0] || loaded[1] != specs[1] {
		t.Fatalf("loaded %+v, want %+v", loaded, specs)
	}
	if got := fs2.Tenants(); len(got) != 2 {
		t.Fatalf("registry after load: %+v", got)
	}
	if err := fs2.DeleteTenant("batch"); err != nil {
		t.Fatal(err)
	}
	loaded, err = fs2.LoadTenants()
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || loaded[0].Name != "prod" {
		t.Fatalf("after delete: %+v", loaded)
	}
	// Without QoS configured the tenant verbs refuse cleanly.
	d2 := newTestFS(t, 1, 0)
	if err := d2.fs.SaveTenant(specs[0]); err == nil {
		t.Fatal("SaveTenant without QoS succeeded")
	}
}

// TestTenantIsolationWeightedShares is the acceptance demonstration: two
// tenants share one deployment; the low-priority tenant saturating its
// share leaves the high-priority tenant's throughput within 25% of what
// it gets running alone, because shares are strict reservations.
func TestTenantIsolationWeightedShares(t *testing.T) {
	if testing.Short() {
		t.Skip("paced-bandwidth timing test")
	}
	tenants := qos.NewRegistry(qos.Options{TotalBandwidth: 4 << 20})
	defer tenants.Close()
	d := newTestFS(t, 2, 2, withQoS(tenants))
	if err := d.fs.SaveTenant(qos.TenantSpec{Name: "prod", Weight: 3, Priority: qos.PriorityHigh}); err != nil {
		t.Fatal(err)
	}
	if err := d.fs.SaveTenant(qos.TenantSpec{Name: "batch", Weight: 1, Priority: qos.PriorityLow}); err != nil {
		t.Fatal(err)
	}
	// prod's share: 4 MiB/s * 3/4 = 3 MiB/s, token burst 3 MiB.
	const payload = 6 << 20 // ~1s paced past the burst
	data := randomBytes(7, payload)
	refill := func() { time.Sleep(1100 * time.Millisecond) } // full burst refill at 3 MiB/s

	measure := func(path string) time.Duration {
		start := time.Now()
		if err := d.fs.WriteFile(path, data); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	solo := measure("/tenants/prod/solo")
	refill()

	// batch saturates its share for the whole contended run.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		junk := randomBytes(8, 256<<10)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = d.fs.WriteFile(fmt.Sprintf("/tenants/batch/junk%d", i%4), junk)
		}
	}()
	contended := measure("/tenants/prod/contended")
	close(stop)
	wg.Wait()

	ratio := float64(contended-solo) / float64(solo)
	if ratio < 0 {
		ratio = -ratio
	}
	t.Logf("solo=%v contended=%v delta=%.1f%%", solo, contended, ratio*100)
	if ratio > 0.25 {
		t.Fatalf("high-priority write degraded %.1f%% under low-priority saturation (solo %v, contended %v)",
			ratio*100, solo, contended)
	}
}

// victimDataPriorities lists the data keys on a node bucketed by their
// owner's reclamation priority.
func victimDataPriorities(t *testing.T, fs *FileSystem, nodeID string) map[qos.Priority][]string {
	t.Helper()
	cli, err := fs.conns.client(nodeID)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := listStripes(cli)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[qos.Priority][]string)
	mv := fs.newMover(cli, nodeID)
	for _, k := range keys {
		p := mv.priority(k)
		out[p] = append(out[p], k)
	}
	return out
}

// TestPriorityReclaimOrder: a partial drain under pressure evicts the
// low-priority tenant's keys first; the high-priority tenant's data stays
// on the node because the low tier alone satisfies the target.
func TestPriorityReclaimOrder(t *testing.T) {
	obsReg := obs.NewRegistry()
	tenants := qos.NewRegistry(qos.Options{Obs: obsReg})
	defer tenants.Close()
	d := newTestFS(t, 2, 1, withQoS(tenants), withObsRegistry(obsReg))
	if err := d.fs.SaveTenant(qos.TenantSpec{Name: "batch", Priority: qos.PriorityLow}); err != nil {
		t.Fatal(err)
	}
	if err := d.fs.SaveTenant(qos.TenantSpec{Name: "prod", Priority: qos.PriorityHigh}); err != nil {
		t.Fatal(err)
	}
	// Spread both tenants' data across the deployment; the single victim
	// node ends up holding a mix of both priorities.
	for i := 0; i < 24; i++ {
		if err := d.fs.WriteFile(fmt.Sprintf("/tenants/batch/f%d", i), randomBytes(int64(i), 16<<10)); err != nil {
			t.Fatal(err)
		}
		if err := d.fs.WriteFile(fmt.Sprintf("/tenants/prod/f%d", i), randomBytes(int64(100+i), 16<<10)); err != nil {
			t.Fatal(err)
		}
	}
	node := d.victims.Nodes[0].ID
	before := victimDataPriorities(t, d.fs, node)
	if len(before[qos.PriorityLow]) == 0 || len(before[qos.PriorityHigh]) == 0 {
		t.Fatalf("victim holds low=%d high=%d keys; need both for the ordering test",
			len(before[qos.PriorityLow]), len(before[qos.PriorityHigh]))
	}
	cli, err := d.fs.conns.client(node)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cli.Info()
	if err != nil {
		t.Fatal(err)
	}
	// Target a reduction the low tier alone can satisfy (one 4 KiB stripe
	// per low key, keep half of them as margin).
	reduce := int64(len(before[qos.PriorityLow])/2) * (4 << 10)
	rep, err := d.fs.DrainNode(context.Background(), node, st.BytesUsed-reduce)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Moved == 0 {
		t.Fatal("drain moved nothing")
	}
	after := victimDataPriorities(t, d.fs, node)
	if got, want := len(after[qos.PriorityHigh]), len(before[qos.PriorityHigh]); got != want {
		t.Fatalf("high-priority keys drained while low-priority remain: %d -> %d (low %d -> %d)",
			want, got, len(before[qos.PriorityLow]), len(after[qos.PriorityLow]))
	}
	if len(after[qos.PriorityLow]) >= len(before[qos.PriorityLow]) {
		t.Fatalf("no low-priority keys drained: %d -> %d",
			len(before[qos.PriorityLow]), len(after[qos.PriorityLow]))
	}
	// The reclaim counters tell the same story.
	var lowReclaimed, highReclaimed int64
	for _, f := range obsReg.Snapshot() {
		if f.Name != "memfss_qos_reclaimed_keys_total" {
			continue
		}
		for _, s := range f.Series {
			switch s.Labels.Get("priority") {
			case "low":
				lowReclaimed = s.Value
			case "high":
				highReclaimed = s.Value
			}
		}
	}
	if lowReclaimed == 0 || highReclaimed != 0 {
		t.Fatalf("reclaim counters low=%d high=%d, want low>0 high=0", lowReclaimed, highReclaimed)
	}
	// Everything is still readable from wherever it landed.
	for i := 0; i < 24; i++ {
		for _, tn := range []string{"batch", "prod"} {
			if err := d.fs.VerifyFile(fmt.Sprintf("/tenants/%s/f%d", tn, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPriorityReclaimStoreWide: the drain orders the victim's whole
// listing by priority, not a window of it. The victim holds more than 256
// keys of the high-priority tenant, and they sort first by key (its files
// take the lower file IDs, all three digits wide); a target the low tier
// alone can meet moves every low-priority key it needs and no
// high-priority one.
func TestPriorityReclaimStoreWide(t *testing.T) {
	tenants := qos.NewRegistry(qos.Options{})
	defer tenants.Close()
	d := newTestFS(t, 1, 1, withQoS(tenants))
	for _, spec := range []qos.TenantSpec{{Name: "prod", Priority: qos.PriorityHigh}, {Name: "batch", Priority: qos.PriorityLow}} {
		if err := d.fs.SaveTenant(spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.own.Server(0).Store().Set("nextid", []byte("99")); err != nil {
		t.Fatal(err)
	}
	for _, tn := range []string{"prod", "batch"} {
		for i := 0; i < 24; i++ {
			if err := d.fs.WriteFile(fmt.Sprintf("/tenants/%s/f%d", tn, i), randomBytes(int64(i), 64<<10)); err != nil {
				t.Fatal(err)
			}
		}
	}
	node := d.victims.Nodes[0].ID
	before := victimDataPriorities(t, d.fs, node)
	low, high := len(before[qos.PriorityLow]), len(before[qos.PriorityHigh])
	if high <= 256 || low == 0 || slices.Max(before[qos.PriorityHigh]) > slices.Min(before[qos.PriorityLow]) {
		t.Fatalf("victim holds %d high-priority keys, want > 256 sorting before the %d low ones", high, low)
	}
	// The low tier's payload bytes: a little less than it occupies.
	target := d.victims.Server(0).Store().Stats().BytesUsed - int64(low)*(4<<10)
	if _, err := d.fs.DrainNode(context.Background(), node, target); err != nil {
		t.Fatal(err)
	}
	after := victimDataPriorities(t, d.fs, node)
	if got := len(after[qos.PriorityHigh]); got != high || len(after[qos.PriorityLow]) > low/10 {
		t.Fatalf("drain left high %d -> %d and low %d -> %d keys; want every high key kept and at most a tenth of the low ones",
			high, got, low, len(after[qos.PriorityLow]))
	}
}

// TestAdvertiseCapacity: victim headroom becomes lease supply.
func TestAdvertiseCapacity(t *testing.T) {
	tenants := qos.NewRegistry(qos.Options{})
	defer tenants.Close()
	d := newTestFS(t, 1, 2, withQoS(tenants))
	if err := d.fs.ApplyVictimCaps(); err != nil {
		t.Fatal(err)
	}
	if err := d.fs.AdvertiseCapacity(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// The broker journals each advertisement: node, bytes and notice SLO.
	offers := d.fs.Events().Events(0, "lease")
	if len(offers) != 2 {
		t.Fatalf("lease events = %+v, want one advertisement per victim", offers)
	}
	var names []string
	for _, e := range offers {
		names = append(names, e.Node)
		var bytes int64
		var slo string
		if _, err := fmt.Sscanf(e.Detail, "advertised %d bytes, notice SLO %s", &bytes, &slo); err != nil ||
			bytes <= 0 || slo != "100ms" {
			t.Fatalf("advertisement %+v", e)
		}
	}
	sort.Strings(names)
	if names[0] != d.victims.Nodes[0].ID && names[1] != d.victims.Nodes[0].ID {
		t.Fatalf("offers name %v", names)
	}
}

// percentile returns the p-th percentile of sorted durations.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(float64(len(sorted)-1) * p)
	return sorted[idx]
}

// Two tenants under a lease revocation are the revocation-storm scenarios
// of internal/chaos (TestScenarioRevocationStorm*).
