package main

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"memfss/internal/obs"
)

// runStats fetches a memfsd health endpoint's /metrics page and prints a
// compact operator view: store gauges, nonzero counters, histogram
// quantiles, per-node detector states, the repair queue's depth and the
// last census's redundancy gauges.
// endpoint is a host:port or URL of a daemon's -health-addr.
func runStats(endpoint string) error {
	base := endpoint
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	page, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		return err
	}
	printStore(page)
	printHealth(page)
	printRepair(page)
	printCounters(page)
	printQuantiles(collectHists(page))
	return nil
}

func printStore(page *obs.ParsedPage) {
	get := func(name string) float64 {
		if s := page.Find(name, nil); s != nil {
			return s.Value
		}
		return 0
	}
	pressure := "no"
	if get("memfss_store_pressure") > 0 {
		pressure = "YES"
	}
	fmt.Printf("store: uptime=%s keys=%d bytes=%d cap=%d ops=%d pressure=%s\n\n",
		(time.Duration(get("memfss_store_uptime_seconds")) * time.Second),
		int64(get("memfss_store_keys")), int64(get("memfss_store_bytes_used")),
		int64(get("memfss_store_max_memory_bytes")), int64(get("memfss_store_ops")), pressure)
}

func printHealth(page *obs.ParsedPage) {
	var rows []string
	for _, s := range page.Samples {
		if s.Name != "memfss_health_node_state" {
			continue
		}
		state := "up"
		switch int(s.Value) {
		case 1:
			state = "suspect"
		case 2:
			state = "down"
		}
		rows = append(rows, fmt.Sprintf("  %-12s %s", s.Labels.Get("node"), state))
	}
	if len(rows) == 0 {
		return
	}
	sort.Strings(rows)
	fmt.Println("health:")
	for _, r := range rows {
		fmt.Println(r)
	}
	fmt.Println()
}

func printRepair(page *obs.ParsedPage) {
	depth := func(state string) int64 {
		if s := page.Find("memfss_repair_queue_depth", obs.L("state", state)); s != nil {
			return int64(s.Value)
		}
		return 0
	}
	if page.Types["memfss_repair_queue_depth"] == "" {
		return
	}
	fmt.Printf("repair queue: queued=%d owed=%d in_flight=%d\n",
		depth("queued"), depth("owed"), depth("in_flight"))
	gauge := func(name string) float64 {
		if s := page.Find(name, nil); s != nil {
			return s.Value
		}
		return -1
	}
	if age := gauge("memfss_fs_census_age_seconds"); age < 0 {
		fmt.Print("redundancy: no census yet\n\n")
	} else {
		fmt.Printf("redundancy: short=%d stray=%d orphan=%d census_age=%s\n\n",
			int64(gauge("memfss_fs_short_stripes")), int64(gauge("memfss_fs_stray_keys")),
			int64(gauge("memfss_fs_orphan_stripes")), time.Duration(age*float64(time.Second)).Round(time.Second))
	}
}

// printCounters lists every counter sample with a nonzero value, sorted,
// so new instrumentation shows up without the CLI needing to learn it.
func printCounters(page *obs.ParsedPage) {
	var rows []string
	for _, s := range page.Samples {
		if page.Types[s.Name] != "counter" || s.Value == 0 {
			continue
		}
		rows = append(rows, fmt.Sprintf("  %-58s %12s", s.Name+s.Labels.String(), formatCount(s.Value)))
	}
	if len(rows) == 0 {
		return
	}
	sort.Strings(rows)
	fmt.Println("counters (nonzero):")
	for _, r := range rows {
		fmt.Println(r)
	}
	fmt.Println()
}

func formatCount(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// parsedHist is a histogram series reconstructed from its _bucket /
// _count / _sum sample lines.
type parsedHist struct {
	family string
	labels obs.Labels
	bounds []time.Duration
	snap   obs.SeriesSnapshot
}

// collectHists regroups the page's flat histogram samples back into
// series, keyed by family plus the label set minus le. Bucket bounds are
// recovered from the le values (seconds).
func collectHists(page *obs.ParsedPage) []*parsedHist {
	type bucket struct {
		le  float64
		cum int64
	}
	buckets := make(map[string][]bucket)
	hists := make(map[string]*parsedHist)
	key := func(family string, ls obs.Labels) string { return family + ls.String() }
	ensure := func(family string, ls obs.Labels) *parsedHist {
		k := key(family, ls)
		h := hists[k]
		if h == nil {
			h = &parsedHist{family: family, labels: ls}
			hists[k] = h
		}
		return h
	}
	for _, s := range page.Samples {
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			family := strings.TrimSuffix(s.Name, "_bucket")
			if page.Types[family] != "histogram" {
				continue
			}
			le, err := strconv.ParseFloat(s.Labels.Get("le"), 64)
			if s.Labels.Get("le") == "+Inf" {
				le, err = time.Duration(1<<62).Seconds(), nil
			}
			if err != nil {
				continue
			}
			ls := labelsWithout(s.Labels, "le")
			ensure(family, ls)
			k := key(family, ls)
			buckets[k] = append(buckets[k], bucket{le: le, cum: int64(s.Value)})
		case strings.HasSuffix(s.Name, "_count"):
			family := strings.TrimSuffix(s.Name, "_count")
			if page.Types[family] != "histogram" {
				continue
			}
			ensure(family, s.Labels).snap.Count = int64(s.Value)
		case strings.HasSuffix(s.Name, "_sum"):
			family := strings.TrimSuffix(s.Name, "_sum")
			if page.Types[family] != "histogram" {
				continue
			}
			ensure(family, s.Labels).snap.Sum = time.Duration(s.Value * float64(time.Second))
		}
	}
	out := make([]*parsedHist, 0, len(hists))
	for k, h := range hists {
		bs := buckets[k]
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		for _, b := range bs {
			// The +Inf bucket contributes a cumulative count but no finite
			// bound; Quantile clamps into the last finite bucket.
			if b.le < time.Duration(1<<62).Seconds() {
				h.bounds = append(h.bounds, time.Duration(b.le*float64(time.Second)))
			}
			h.snap.CumBuckets = append(h.snap.CumBuckets, b.cum)
		}
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].family != out[j].family {
			return out[i].family < out[j].family
		}
		return out[i].labels.String() < out[j].labels.String()
	})
	return out
}

func labelsWithout(ls obs.Labels, name string) obs.Labels {
	var out obs.Labels
	for _, l := range ls {
		if l.Name != name {
			out = append(out, l)
		}
	}
	return out
}

func printQuantiles(hists []*parsedHist) {
	var rows []string
	for _, h := range hists {
		if h.snap.Count == 0 {
			continue
		}
		rows = append(rows, fmt.Sprintf("  %-52s %8d %10s %10s %10s",
			h.family+h.labels.String(), h.snap.Count,
			fmtQ(&h.snap, h.bounds, 0.50), fmtQ(&h.snap, h.bounds, 0.95), fmtQ(&h.snap, h.bounds, 0.99)))
	}
	if len(rows) == 0 {
		return
	}
	fmt.Printf("latency:\n  %-52s %8s %10s %10s %10s\n", "series", "count", "p50", "p95", "p99")
	for _, r := range rows {
		fmt.Println(r)
	}
}

func fmtQ(s *obs.SeriesSnapshot, bounds []time.Duration, q float64) string {
	d := s.Quantile(bounds, q)
	if d < 0 {
		return "-"
	}
	return d.Round(time.Microsecond).String()
}
