package chaos

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"memfss/internal/core"
	"memfss/internal/faultwrap"
)

// Result is one scenario run's structured outcome — the trajectory point
// appended to BENCH_scenarios.json. Everything a floor gate or a human
// comparing two commits needs is here; everything else stays in the
// flight recorder.
type Result struct {
	Scenario string    `json:"scenario"`
	Describe string    `json:"describe,omitempty"`
	When     time.Time `json:"when"`
	Seed     int64     `json:"seed"`
	// DurationMs is the workload wall-clock.
	DurationMs float64 `json:"duration_ms"`

	Streams []StreamResult `json:"streams"`

	// Detection lists fault-to-Down times per faulted node; Ms -1 means
	// the detector never condemned the node.
	Detection []DetectionPoint `json:"detection,omitempty"`
	// RecoveryMs is heal-to-repair-idle time (0 when nothing faulted).
	RecoveryMs       float64 `json:"recovery_ms"`
	RecoveryTimedOut bool    `json:"recovery_timed_out,omitempty"`

	Evacs   []EvacSummary   `json:"evacs,omitempty"`
	Revokes []RevokeSummary `json:"revokes,omitempty"`

	// Loss ledger: damaged files per Fsck, scrub leftovers, content
	// mismatches on acknowledged writes, and the verify census.
	FsckDamaged int `json:"fsck_damaged"`
	// FsckOrphans and FsckStrays are the census's counts of stripe values
	// no read asks for: of no live file, or off every slot of a live one.
	FsckOrphans       int `json:"fsck_orphans"`
	FsckStrays        int `json:"fsck_strays"`
	ScrubRestored     int `json:"scrub_restored"`
	ScrubUnrepairable int `json:"scrub_unrepairable"`
	ScrubDeferred     int `json:"scrub_deferred"`
	// ScrubRestoredUnits names each slot the scrub rewrote: stripe, slot,
	// node, and what the slot held (missing, stale or unparseable).
	ScrubRestoredUnits []string `json:"scrub_restored_units,omitempty"`
	LossMismatches     int      `json:"loss_mismatches"`
	VerifiedPaths      int      `json:"verified_paths"`
	TaintedPaths       int      `json:"tainted_paths"`

	// WorkloadCounters is the snapshot taken the moment the workload
	// finished, before recovery/scrub/verify traffic — the number to use
	// when comparing what the workload itself cost across runs.
	WorkloadCounters core.Counters `json:"workload_counters"`
	// Counters is the final snapshot at teardown (includes repair, scrub,
	// and verify traffic).
	Counters core.Counters `json:"counters"`
	// RepairStats is the repair queue's snapshot when recovery settled,
	// before the teardown Scrub, Fsck and final verify.
	RepairStats core.RepairStats `json:"repair"`
	Faults      faultwrap.Stats  `json:"faults"`

	// Measured holds counts a scenario's Check takes from the cluster
	// beyond the fields above, by name.
	Measured map[string]int `json:"measured,omitempty"`

	Violations []string `json:"violations"`
	Passed     bool     `json:"passed"`
}

// DetectionPoint is one faulted node's time-to-Down.
type DetectionPoint struct {
	Node string  `json:"node"`
	Ms   float64 `json:"ms"` // -1: never detected
}

// EvacSummary condenses one evacuation report.
type EvacSummary struct {
	Node      string  `json:"node"`
	Moved     int     `json:"moved"`
	Deferred  int     `json:"deferred"`
	AtRisk    int     `json:"at_risk"`
	Passes    int     `json:"passes"`
	Forced    bool    `json:"forced"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

// RevokeSummary condenses one revocation: the leases it noticed, the
// notice they got before the eviction's fence, and the leave, from that
// fence until the node was released.
type RevokeSummary struct {
	Node        string  `json:"node"`
	Leases      int     `json:"leases"`
	NoticeSLOMs float64 `json:"notice_slo_ms"`
	NoticeMs    float64 `json:"notice_ms"`
	SLOMet      bool    `json:"slo_met"`
	LeaveMs     float64 `json:"leave_ms"`
}

// StreamResult is one stream's availability and latency summary.
type StreamResult struct {
	Name         string `json:"name"`
	Ops          int64  `json:"ops"`
	Errors       int64  `json:"errors"`
	QuotaRejects int64  `json:"quota_rejects"`
	Mismatches   int64  `json:"mismatches"`
	// ErrorRate is errors/ops over the whole run; WorstWindowRate is the
	// highest rate over any SLO window (equal to ErrorRate when the SLO
	// has no window).
	ErrorRate       float64 `json:"error_rate"`
	WorstWindowRate float64 `json:"worst_window_rate"`
	WriteP50Ms      float64 `json:"write_p50_ms"`
	WriteP99Ms      float64 `json:"write_p99_ms"`
	ReadP50Ms       float64 `json:"read_p50_ms"`
	ReadP99Ms       float64 `json:"read_p99_ms"`
}

func (s *streamRun) summarize() StreamResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs int64
	for _, m := range s.ops {
		if m.err {
			errs++
		}
	}
	res := StreamResult{
		Name:         s.spec.Name,
		Ops:          s.done.Load(),
		Errors:       errs,
		QuotaRejects: s.quota,
		Mismatches:   s.mismatch,
		WriteP50Ms:   ms(percentile(s.writes, 0.50)),
		WriteP99Ms:   ms(percentile(s.writes, 0.99)),
		ReadP50Ms:    ms(percentile(s.reads, 0.50)),
		ReadP99Ms:    ms(percentile(s.reads, 0.99)),
	}
	if n := len(s.ops); n > 0 {
		res.ErrorRate = float64(errs) / float64(n)
	}
	res.WorstWindowRate = res.ErrorRate
	return res
}

// windowRate returns the worst error rate over any window-sized bucket
// with at least minOps ops. window 0 treats the whole run as one bucket.
func (s *streamRun) windowRate(window time.Duration, minOps int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ops) == 0 {
		return 0
	}
	if window <= 0 {
		var errs int
		for _, m := range s.ops {
			if m.err {
				errs++
			}
		}
		return float64(errs) / float64(len(s.ops))
	}
	type bucket struct{ ops, errs int }
	buckets := map[int64]*bucket{}
	for _, m := range s.ops {
		k := int64(m.at / window)
		b := buckets[k]
		if b == nil {
			b = &bucket{}
			buckets[k] = b
		}
		b.ops++
		if m.err {
			b.errs++
		}
	}
	if minOps < 1 {
		minOps = 1
	}
	worst := 0.0
	for _, b := range buckets {
		if b.ops < minOps {
			continue
		}
		if rate := float64(b.errs) / float64(b.ops); rate > worst {
			worst = rate
		}
	}
	return worst
}

func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	// Nearest-rank: p99 of 5 samples is the max, not the 4th.
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// evaluateSLO turns the scenario's SLO into violation strings against
// the measured result.
func (r *run) evaluateSLO(res *Result) []string {
	slo := r.sc.SLO
	var v []string
	if slo.ZeroLoss {
		if res.FsckDamaged > 0 {
			v = append(v, fmt.Sprintf("loss: fsck found %d damaged files", res.FsckDamaged))
		}
		if res.ScrubUnrepairable > 0 {
			v = append(v, fmt.Sprintf("loss: %d unrepairable stripes", res.ScrubUnrepairable))
		}
		var mismatches int64
		for _, s := range res.Streams {
			mismatches += s.Mismatches
		}
		if mismatches > 0 || res.LossMismatches > 0 {
			v = append(v, fmt.Sprintf("loss: %d acknowledged writes read back wrong",
				mismatches+int64(res.LossMismatches)))
		}
	}
	if slo.MaxDetection > 0 {
		for _, d := range res.Detection {
			if d.Ms < 0 {
				v = append(v, fmt.Sprintf("detection: %s never marked Down within %v",
					d.Node, slo.MaxDetection))
			} else if d.Ms > ms(slo.MaxDetection) {
				v = append(v, fmt.Sprintf("detection: %s took %.0fms, bound %v",
					d.Node, d.Ms, slo.MaxDetection))
			}
		}
	}
	if slo.MaxRecovery > 0 {
		if res.RecoveryTimedOut {
			v = append(v, fmt.Sprintf("recovery: repair queue not idle within %v budget", slo.MaxRecovery))
		} else if res.RecoveryMs > ms(slo.MaxRecovery) {
			v = append(v, fmt.Sprintf("recovery: %.0fms, bound %v", res.RecoveryMs, slo.MaxRecovery))
		}
	}
	if slo.CleanScrub {
		if res.ScrubRestored > 0 {
			v = append(v, fmt.Sprintf("scrub restored %d units the repair queue missed: %s",
				res.ScrubRestored, strings.Join(res.ScrubRestoredUnits, ", ")))
		}
		if res.ScrubUnrepairable > 0 {
			v = append(v, fmt.Sprintf("scrub found %d unrepairable units", res.ScrubUnrepairable))
		}
	}
	if slo.RequireDeferred && res.ScrubDeferred == 0 {
		v = append(v, "no deferred units despite a permanently dead node — the kill never bit")
	}
	if slo.NoDeferred && res.ScrubDeferred > 0 {
		v = append(v, fmt.Sprintf("%d stripes still deferred after heal — redundancy not fully restored", res.ScrubDeferred))
	}
	if slo.TargetedRepairOnly && res.RepairStats.Overflows > 0 {
		v = append(v, fmt.Sprintf("targeted repair overflowed %d times", res.RepairStats.Overflows))
	}
	for _, ss := range slo.Streams {
		for si := range res.Streams {
			sr := &res.Streams[si]
			if ss.Stream != "" && ss.Stream != sr.Name {
				continue
			}
			run := r.findStream(sr.Name)
			if run == nil {
				continue
			}
			if ss.Window > 0 || ss.MinWindowOps > 0 {
				sr.WorstWindowRate = run.windowRate(ss.Window, ss.MinWindowOps)
			}
			if sr.WorstWindowRate > ss.MaxErrorRate {
				msg := fmt.Sprintf("availability: stream %s worst-window error rate %.4f > %.4f",
					sr.Name, sr.WorstWindowRate, ss.MaxErrorRate)
				run.mu.Lock()
				if len(run.errSamples) > 0 {
					msg += " (e.g. " + strings.Join(run.errSamples, "; ") + ")"
				}
				run.mu.Unlock()
				v = append(v, msg)
			}
			if ss.MaxWriteP99 > 0 && sr.WriteP99Ms > ms(ss.MaxWriteP99) {
				v = append(v, fmt.Sprintf("latency: stream %s write p99 %.1fms > %v",
					sr.Name, sr.WriteP99Ms, ss.MaxWriteP99))
			}
			if ss.MaxReadP99 > 0 && sr.ReadP99Ms > ms(ss.MaxReadP99) {
				v = append(v, fmt.Sprintf("latency: stream %s read p99 %.1fms > %v",
					sr.Name, sr.ReadP99Ms, ss.MaxReadP99))
			}
			if ss.MinOps > 0 && sr.Ops < ss.MinOps {
				v = append(v, fmt.Sprintf("liveness: stream %s completed %d ops, floor %d",
					sr.Name, sr.Ops, ss.MinOps))
			}
		}
	}
	return v
}

// AppendResult appends one result to the JSON-array trajectory file at
// path (created if absent); the file stays a valid JSON document after
// every append.
func AppendResult(path string, res *Result) error {
	var records []json.RawMessage
	if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
		if err := json.Unmarshal(data, &records); err != nil {
			return fmt.Errorf("chaos: %s exists but is not a JSON array: %w", path, err)
		}
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	records = append(records, raw)
	out, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
