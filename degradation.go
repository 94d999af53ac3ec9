package vanetsim

import (
	"fmt"
	"math"
	"strings"

	"vanetsim/internal/fault"
	"vanetsim/internal/packet"
	"vanetsim/internal/runner"
)

// Fault-injection facade: the impairment layer's types re-exported for
// callers configuring TrialConfig.Faults directly.

// FaultPlan is a trial's impairment recipe (error models, bursty loss,
// shadowing, outages). The zero value injects nothing and leaves every
// unfaulted output byte-identical.
type FaultPlan = fault.Plan

// FaultBernoulli is the independent per-frame/per-bit error model.
type FaultBernoulli = fault.Bernoulli

// FaultGilbertElliott is the two-state bursty loss model.
type FaultGilbertElliott = fault.GilbertElliott

// FaultOutage schedules one node's radio off the air for a window.
type FaultOutage = fault.Outage

// BurstFault returns a Gilbert–Elliott model with the given stationary
// loss probability and mean burst length in frames.
func BurstFault(lossProb, meanBurstLen float64) FaultGilbertElliott {
	return fault.Burst(lossProb, meanBurstLen)
}

// ParseFaultOutage parses the CLI outage syntax "node:start:duration"
// (node ID, then seconds) shared by cmd/vanetsim and cmd/eblsweep. It
// checks syntax only; FaultPlan.Validate judges the window.
func ParseFaultOutage(s string) (FaultOutage, error) {
	var node packet.NodeID
	var start, dur float64
	if n, err := fmt.Sscanf(s, "%d:%g:%g", &node, &start, &dur); n != 3 || err != nil {
		return FaultOutage{}, fmt.Errorf("bad outage %q (want node:start:duration, e.g. 1:22:5): %v", s, err)
	}
	return FaultOutage{Node: node, Start: Seconds(start), Duration: Seconds(dur)}, nil
}

// DegradationConfig sweeps one trial configuration across increasing
// channel loss and reports how delay, throughput, and the braking-safety
// margin degrade — the fault layer's headline experiment.
type DegradationConfig struct {
	// Base is the trial to degrade; its Faults field is overwritten per
	// point. Telemetry is forced on (the sweep reads fault counters).
	Base TrialConfig
	// LossProbs are the stationary per-frame loss rates to sweep.
	LossProbs []float64
	// BurstLen selects the loss model: <= 1 uses independent Bernoulli
	// losses, > 1 uses Gilbert–Elliott bursts with this mean length.
	BurstLen float64
	// ShadowSigmaDB adds log-normal shadowing at every point (0 = off).
	ShadowSigmaDB float64
	// Outage, unless it is the zero value, is applied verbatim at every
	// point so the sweep degrades an already-impaired network.
	Outage FaultOutage
	// Jobs bounds concurrent runs (<= 0 = one per CPU). Results are
	// reduced in sweep order, so output is identical at every width.
	Jobs int
	// OnPoint, if non-nil, receives each point with its finished run, in
	// sweep order and never concurrently. An error stops the sweep and
	// is returned by RunDegradation.
	OnPoint func(i int, pt DegradationPoint, r *TrialResult) error
}

// DefaultDegradation sweeps the paper's base trial on the given MAC from a
// clean channel to 30% loss in independent-loss mode.
func DefaultDegradation(mac MACType) DegradationConfig {
	base := Trial1()
	base.MAC = mac
	if mac == MAC80211 {
		base = Trial3()
	}
	base.Duration = Seconds(80)
	return DegradationConfig{
		Base:      base,
		LossProbs: []float64{0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3},
	}
}

// point returns the trial one sweep point runs: the base with telemetry on
// and the point's impairment recipe.
func (c DegradationConfig) point(lossProb float64) TrialConfig {
	tc := c.Base
	tc.Telemetry = true
	tc.Faults = FaultPlan{ShadowSigmaDB: c.ShadowSigmaDB}
	if c.BurstLen <= 1 {
		tc.Faults.Bernoulli = fault.Bernoulli{LossProb: lossProb}
	} else {
		tc.Faults.Burst = fault.Burst(lossProb, c.BurstLen)
	}
	if c.Outage != (FaultOutage{}) {
		tc.Faults.Outages = []FaultOutage{c.Outage}
	}
	return tc
}

// DegradationPoint is one loss-rate step's measured outcome.
type DegradationPoint struct {
	LossProb float64
	// MeanDelayS and MaxDelayS summarise platoon 1's middle-vehicle flow;
	// FirstDelayS is its safety-critical initial-packet delay (NaN when
	// nothing was delivered).
	MeanDelayS  float64
	MaxDelayS   float64
	FirstDelayS float64
	// ThroughputMbps is the two platoons' combined mean goodput.
	ThroughputMbps float64
	// Retransmits counts TCP retransmissions across all flows; Injected
	// counts frames the error models destroyed.
	Retransmits uint64
	Injected    uint64
	// SafetyMarginM is the paper's 25 m following gap minus the minimum
	// safe gap at the measured indication delay (negative = crash region;
	// -Inf when no packet was ever delivered).
	SafetyMarginM float64
	Safe          bool
	// Violations counts runtime invariant violations when the base trial
	// ran with Check armed (always 0 otherwise).
	Violations int
}

// Validate reports whether the sweep can run, before anything does: a
// finite non-negative burst length, and every point's trial passing
// TrialConfig.Validate, which judges the base, the loss rate, the
// shadowing and the outage.
func (c DegradationConfig) Validate() error {
	if !(c.BurstLen >= 0 && c.BurstLen < math.Inf(1)) {
		return fmt.Errorf("vanetsim: degradation burst length %v: want finite and >= 0", c.BurstLen)
	}
	for i, p := range c.LossProbs {
		if err := c.point(p).Validate(); err != nil {
			return fmt.Errorf("vanetsim: degradation point %d (loss %v): %w", i, p, err)
		}
	}
	return nil
}

// RunDegradation executes the sweep and returns one point per loss rate,
// in order. It returns cfg.Validate's error without running anything.
func RunDegradation(cfg DegradationConfig) ([]DegradationPoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.LossProbs) == 0 {
		return nil, nil
	}
	model := DefaultBrakingModel()
	points := make([]DegradationPoint, len(cfg.LossProbs))
	err := runner.Each(runner.Pool{Workers: cfg.Jobs}, len(cfg.LossProbs),
		func(i int) (*TrialResult, error) {
			return RunTrial(cfg.point(cfg.LossProbs[i])), nil
		},
		func(i int, r *TrialResult) error {
			points[i] = degradationPoint(cfg.Base, cfg.LossProbs[i], model, r)
			if cfg.OnPoint != nil {
				return cfg.OnPoint(i, points[i], r)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return points, nil
}

func degradationPoint(base TrialConfig, lossProb float64, model BrakingModel, r *TrialResult) DegradationPoint {
	pt := DegradationPoint{LossProb: lossProb, Violations: len(r.Violations)}
	d := r.Platoon1.MiddleDelays()
	sm := d.Summary()
	pt.MeanDelayS, pt.MaxDelayS = sm.Mean, sm.Max

	t1 := r.Platoon1.Throughput().Summary(r.Config.Duration)
	t2 := r.Platoon2.Throughput().Summary(r.Config.Duration)
	pt.ThroughputMbps = t1.Mean + t2.Mean

	if t := r.Telemetry; t != nil {
		pt.Retransmits, _ = t.Counter("tcp/retransmits")
		pt.Injected, _ = t.Counter("fault/rx_impaired")
	}

	// Safety verdict from the worst (trailing-vehicle) indication delay, as
	// the paper's §III.E analysis frames it.
	if first, ok := r.Platoon1.TrailingDelays().First(); ok {
		pt.FirstDelayS = float64(first)
		pt.SafetyMarginM = base.SpacingM - model.MinSafeGap(base.SpeedMS, first)
		pt.Safe = pt.SafetyMarginM >= 0
	} else {
		pt.FirstDelayS = math.NaN()
		pt.SafetyMarginM = math.Inf(-1)
	}
	return pt
}

// FormatDegradationTable renders degradation points as an aligned table.
func FormatDegradationTable(points []DegradationPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %10s %10s %10s %10s %8s %9s %10s %5s\n",
		"loss", "avg_dly_s", "max_dly_s", "first_s", "mbps", "rtx", "injected", "margin_m", "safe")
	for _, p := range points {
		fmt.Fprintf(&b, "%8.3f %10.4f %10.4f %10.4f %10.4f %8d %9d %10.2f %5v\n",
			p.LossProb, p.MeanDelayS, p.MaxDelayS, p.FirstDelayS,
			p.ThroughputMbps, p.Retransmits, p.Injected, p.SafetyMarginM, p.Safe)
	}
	return b.String()
}

// DegradationCSV renders degradation points as CSV for plotting.
func DegradationCSV(points []DegradationPoint) string {
	var b strings.Builder
	b.WriteString("loss_prob,avg_delay_s,max_delay_s,first_delay_s,throughput_mbps,tcp_retransmits,injected_drops,safety_margin_m,safe\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%g,%g,%g,%g,%g,%d,%d,%g,%v\n",
			p.LossProb, p.MeanDelayS, p.MaxDelayS, p.FirstDelayS,
			p.ThroughputMbps, p.Retransmits, p.Injected, p.SafetyMarginM, p.Safe)
	}
	return b.String()
}
