package eval

import (
	"fmt"
	"io"
	"strings"

	"memfss/internal/obs"
	"memfss/internal/workflow"
)

// Figure2Sample is one sampling instant of the utilization time series
// behind Figures 2a–2e: per-group average CPU and NIC load while the dd
// bag runs.
type Figure2Sample struct {
	At            float64
	OwnCPUPct     float64
	VictimCPUPct  float64
	OwnNetMBps    float64
	VictimNetMBps float64
}

// Figure2Series runs one α scenario of the Figure 2 baseline and samples
// group utilization every interval seconds — the time-resolved version of
// the figure (the paper plots utilization over the run, Figures 2a–2e).
func Figure2Series(cfg Config, alphaPct int, interval float64) ([]Figure2Sample, error) {
	cfg = cfg.withDefaults()
	if interval <= 0 {
		interval = 1
	}
	w, err := newWorld(cfg, float64(alphaPct)/100, 0)
	if err != nil {
		return nil, err
	}
	ex, err := workflow.NewExecutor(w.eng, w.own, w.fs)
	if err != nil {
		return nil, err
	}
	if err := ex.Start(workflow.DDBag(cfg.scaled(2048), 128<<20)); err != nil {
		return nil, err
	}

	var samples []Figure2Sample
	prev := w.cls.StartWindow()
	var tick func()
	tick = func() {
		ownU := prev.GroupAverage(ids(w.own))
		vicU := prev.GroupAverage(ids(w.victims))
		samples = append(samples, Figure2Sample{
			At:            w.eng.Now(),
			OwnCPUPct:     100 * ownU.CPUFrac,
			VictimCPUPct:  100 * vicU.CPUFrac,
			OwnNetMBps:    ownU.NetBytesPerSec / 1e6,
			VictimNetMBps: vicU.NetBytesPerSec / 1e6,
		})
		prev = w.cls.StartWindow()
		if !ex.Done() {
			w.eng.After(interval, tick)
		}
	}
	w.eng.After(interval, tick)
	w.eng.Run()
	if !ex.Done() {
		return nil, fmt.Errorf("eval: figure 2 series α=%d%% did not finish", alphaPct)
	}
	return samples, nil
}

// WriteFigure2CSV writes a series as CSV (time,ownCPU,victimCPU,ownNet,
// victimNet), ready for plotting against the paper's Figures 2a–2e.
func WriteFigure2CSV(wr io.Writer, samples []Figure2Sample) error {
	if _, err := fmt.Fprintln(wr, "time_s,own_cpu_pct,victim_cpu_pct,own_net_mbps,victim_net_mbps"); err != nil {
		return err
	}
	for _, s := range samples {
		if _, err := fmt.Fprintf(wr, "%.2f,%.3f,%.3f,%.1f,%.1f\n",
			s.At, s.OwnCPUPct, s.VictimCPUPct, s.OwnNetMBps, s.VictimNetMBps); err != nil {
			return err
		}
	}
	return nil
}

// SummarizeFigure2Series reduces a series to the peak and mean victim
// loads — the bound the paper states ("CPU never higher than 5%, network
// never higher than 500 MB/s").
func SummarizeFigure2Series(samples []Figure2Sample) (peakCPU, meanCPU, peakNet, meanNet float64) {
	cpu := obs.NewSeries("victim-cpu")
	net := obs.NewSeries("victim-net")
	for _, s := range samples {
		cpu.Add(s.At, s.VictimCPUPct)
		net.Add(s.At, s.VictimNetMBps)
	}
	return cpu.Max(), cpu.Mean(), net.Max(), net.Mean()
}

// FormatFigure2Series renders a compact textual sparkline of the victim
// network load over time (the visual core of Figures 2a–2e). nicMBps is
// the NIC capacity used as full scale (3000 for DAS-5).
func FormatFigure2Series(alphaPct int, samples []Figure2Sample, nicMBps float64) string {
	var b strings.Builder
	peakCPU, meanCPU, peakNet, meanNet := SummarizeFigure2Series(samples)
	fmt.Fprintf(&b, "α=%d%%: victim CPU peak %.1f%% mean %.1f%% | victim net peak %.0f MB/s mean %.0f MB/s\n",
		alphaPct, peakCPU, meanCPU, peakNet, meanNet)
	if len(samples) == 0 || nicMBps <= 0 {
		return b.String()
	}
	const width = 60
	step := len(samples) / width
	if step < 1 {
		step = 1
	}
	levels := []rune(" ▁▂▃▄▅▆▇█")
	b.WriteString("  net|")
	for i := 0; i < len(samples); i += step {
		lvl := int(samples[i].VictimNetMBps / nicMBps * float64(len(levels)-1))
		if lvl < 0 {
			lvl = 0
		}
		if lvl >= len(levels) {
			lvl = len(levels) - 1
		}
		b.WriteRune(levels[lvl])
	}
	b.WriteString("|\n")
	return b.String()
}
