package vanetsim

import (
	"fmt"
	"strings"

	"vanetsim/internal/metrics"
)

// DelayRow is one line of the paper's in-text delay statistics: per trial,
// per platoon, per receiving vehicle.
type DelayRow struct {
	Trial     string
	Platoon   int
	Vehicle   string // "middle" or "trailing"
	N         int
	AvgS      float64
	MinS      float64
	MaxS      float64
	FirstS    float64 // initial packet's delay (the safety-critical one)
	SteadyS   float64 // steady-state level after the transient
	Transient int     // packets in the transient (MSER-5 truncation index)
}

// DelayTable computes the paper's per-vehicle delay statistics for a
// completed trial.
func DelayTable(r *TrialResult) []DelayRow {
	var rows []DelayRow
	add := func(platoon int, vehicle string, s *metrics.DelaySeries) {
		sm := s.Summary()
		first, _ := s.First()
		rest, steady := s.SteadyState()
		rows = append(rows, DelayRow{
			Trial:     r.Config.Name,
			Platoon:   platoon,
			Vehicle:   vehicle,
			N:         sm.N,
			AvgS:      sm.Mean,
			MinS:      sm.Min,
			MaxS:      sm.Max,
			FirstS:    float64(first),
			SteadyS:   steady,
			Transient: s.Len() - len(rest),
		})
	}
	add(1, "middle", r.Platoon1.MiddleDelays())
	add(1, "trailing", r.Platoon1.TrailingDelays())
	add(2, "middle", r.Platoon2.MiddleDelays())
	add(2, "trailing", r.Platoon2.TrailingDelays())
	return rows
}

// FormatDelayTable renders delay rows as an aligned text table.
func FormatDelayTable(rows []DelayRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-3s %-9s %6s %9s %9s %9s %9s %9s %5s\n",
		"trial", "pl", "vehicle", "n", "avg(s)", "min(s)", "max(s)", "first(s)", "steady(s)", "trans")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-3d %-9s %6d %9.4f %9.4f %9.4f %9.4f %9.4f %5d\n",
			r.Trial, r.Platoon, r.Vehicle, r.N, r.AvgS, r.MinS, r.MaxS, r.FirstS, r.SteadyS, r.Transient)
	}
	return b.String()
}

// ThroughputRow is one line of the paper's throughput statistics,
// including the 95% confidence analysis ("within X Mbps of the observed
// value, with a 95% confidence and a Y% relative precision").
type ThroughputRow struct {
	Trial        string
	Platoon      int
	AvgMbps      float64
	MinMbps      float64
	MaxMbps      float64
	CIHalfMbps   float64
	RelPrecision float64 // fraction, e.g. 0.053 for 5.3%
	Level        float64
}

// ThroughputTable computes throughput statistics and confidence intervals
// for both platoons of a completed trial, using 10 batch means at 95%
// confidence.
func ThroughputTable(r *TrialResult) []ThroughputRow {
	const (
		batches = 10
		level   = 0.95
	)
	var rows []ThroughputRow
	add := func(platoon int, p *PlatoonResult) {
		sm := p.Throughput().Summary(r.Config.Duration)
		ci := p.Throughput().CI(r.Config.Duration, batches, level)
		rows = append(rows, ThroughputRow{
			Trial:        r.Config.Name,
			Platoon:      platoon,
			AvgMbps:      sm.Mean,
			MinMbps:      sm.Min,
			MaxMbps:      sm.Max,
			CIHalfMbps:   ci.HalfWidth,
			RelPrecision: ci.RelPrecision(),
			Level:        level,
		})
	}
	add(1, r.Platoon1)
	add(2, r.Platoon2)
	return rows
}

// FormatThroughputTable renders throughput rows as an aligned text table.
func FormatThroughputTable(rows []ThroughputRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-3s %10s %10s %10s %12s %8s\n",
		"trial", "pl", "avg(Mbps)", "min(Mbps)", "max(Mbps)", "95%CI(Mbps)", "relprec")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-3d %10.4f %10.4f %10.4f %12.4f %7.1f%%\n",
			r.Trial, r.Platoon, r.AvgMbps, r.MinMbps, r.MaxMbps, r.CIHalfMbps, r.RelPrecision*100)
	}
	return b.String()
}

// StoppingRow is one line of the §III.E stopping-distance analysis.
type StoppingRow struct {
	Trial string
	StoppingAnalysis
}

// StoppingTable runs the paper's stopping-distance arithmetic on each
// trial's initial-packet delay (platoon 1, middle vehicle).
func StoppingTable(results ...*TrialResult) []StoppingRow {
	var rows []StoppingRow
	for _, r := range results {
		first, ok := r.Platoon1.MiddleDelays().First()
		if !ok {
			continue
		}
		rows = append(rows, StoppingRow{
			Trial:            r.Config.Name,
			StoppingAnalysis: PaperStoppingAnalysis(first),
		})
	}
	return rows
}

// FormatStoppingTable renders stopping rows as an aligned text table.
func FormatStoppingTable(rows []StoppingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %12s %12s %14s\n", "trial", "1st delay(s)", "travelled(m)", "% of 25 m gap")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %12.4f %12.2f %13.1f%%\n",
			r.Trial, float64(r.InitialDelay), r.DistanceBeforeNotice, r.FractionOfSeparation*100)
	}
	return b.String()
}
