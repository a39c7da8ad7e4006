package main

import (
	"bytes"
	"strings"
	"testing"

	"memfss/internal/core"
	"memfss/internal/obs"
)

// TestStatsShowsECHistograms mounts an erasure-coded file system, writes
// one stripe and reads it degraded, and checks that the latency table `memfsctl
// stats` renders from the exposition has a row for the encode histogram
// beside the reconstruct one, and that the hedged-reads counter says what
// made the read reconstruct.
func TestStatsShowsECHistograms(t *testing.T) {
	stores, err := core.StartLocalStores(6, "own", "pw", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stores.Close)
	reg := obs.NewRegistry()
	fs, err := core.New(core.Config{
		Classes:    []core.ClassSpec{{Name: "own", Nodes: stores.Nodes}},
		StripeSize: 4 << 10,
		Password:   "pw",
		Redundancy: core.Redundancy{Mode: core.RedundancyErasure, DataShards: 4, ParityShards: 2},
		Obs:        core.ObsPolicy{Registry: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	if err := fs.WriteFile("/f", bytes.Repeat([]byte("ec"), 2048)); err != nil {
		t.Fatal(err)
	}
	// Drop the stripe's first data shard so the read must reconstruct.
	for i := range stores.Nodes {
		st := stores.Server(i).Store()
		for _, key := range st.KeysN("data:", 0) {
			if strings.HasSuffix(key, "/s0") {
				st.Del(key)
			}
		}
	}
	if _, err := fs.ReadFile("/f"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	page, err := obs.ParsePrometheus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]int64{}
	for _, h := range collectHists(page) {
		rows[h.family] += h.snap.Count
		if h.snap.Count > 0 && h.snap.Quantile(h.bounds, 0.5) < 0 {
			t.Errorf("%s: no p50 from %d observations", h.family, h.snap.Count)
		}
	}
	for _, fam := range []string{"memfss_fs_ec_encode_seconds", "memfss_fs_ec_reconstruct_seconds"} {
		if rows[fam] == 0 {
			t.Errorf("stats latency table has no populated %s row (rows: %v)", fam, rows)
		}
	}
	// The counter table names why the read decoded: the lost shard's slot
	// answered a miss, which fetched the parity shard.
	const hedged = "memfss_fs_ec_hedged_reads_total"
	if m := page.Find(hedged, obs.L("reason", "miss")); page.Types[hedged] != "counter" || m == nil || m.Value < 1 {
		t.Errorf("%s{reason=\"miss\"} = %+v (type %q), want a counter >= 1", hedged, m, page.Types[hedged])
	}
}
