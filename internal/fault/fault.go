// Package fault is the simulator's deterministic impairment layer: seedable
// packet/bit error models, bursty Gilbert–Elliott loss, and scheduled radio
// outages, composed into the PHY without touching its hot path when
// disabled.
//
// Two disciplines make fault injection safe to hang off a reproduction
// repository:
//
//   - Zero effect when off. A zero-value Plan injects nothing, consumes no
//     randomness, and registers no telemetry, so every golden digest of an
//     unfaulted run is unchanged by this package's existence.
//
//   - Per-link, per-model RNG streams. Each (transmitter, receiver) link
//     draws from its own generator, forked by label from a dedicated fault
//     seed stream (never drawn from directly). Streams therefore do not
//     depend on link discovery order, and — because each simulation run is
//     single-threaded — results are byte-identical at any worker-pool width,
//     exactly like internal/runner's guarantee.
package fault

import (
	"fmt"
	"math"

	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
)

// Bernoulli is the independent per-frame error model: every otherwise-intact
// reception on a link is destroyed with a fixed probability, memorylessly.
type Bernoulli struct {
	// LossProb is the per-frame loss probability in [0, 1].
	LossProb float64 `canon:"loss"`
	// BitErrorRate is an independent per-bit error probability in [0, 1);
	// a frame is lost if any of its 8·size bits flips. It composes with
	// LossProb: the frame survives only if it dodges both.
	BitErrorRate float64 `canon:"ber"`
}

// Enabled reports whether the model can ever drop a frame.
func (b Bernoulli) Enabled() bool { return b.LossProb > 0 || b.BitErrorRate > 0 }

// FrameLossProb returns the combined per-frame loss probability for a frame
// of sizeBytes.
func (b Bernoulli) FrameLossProb(sizeBytes int) float64 {
	p := 1 - (1-b.LossProb)*math.Pow(1-b.BitErrorRate, float64(8*sizeBytes))
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// GilbertElliott is the classic two-state bursty loss model: the link
// alternates between a good and a bad state with per-frame transition
// probabilities, and loses frames with a state-dependent probability.
// Every link starts in the good state.
type GilbertElliott struct {
	// PGoodBad is the per-frame probability of a good→bad transition.
	PGoodBad float64 `canon:"burst_pgb"`
	// PBadGood is the per-frame probability of a bad→good transition; its
	// reciprocal is the mean burst length in frames.
	PBadGood float64 `canon:"burst_pbg"`
	// LossGood and LossBad are the loss probabilities in each state
	// (classically 0 and 1).
	LossGood float64 `canon:"burst_lg"`
	LossBad  float64 `canon:"burst_lb"`
}

// Enabled reports whether the model can ever drop a frame.
func (g GilbertElliott) Enabled() bool {
	return (g.PGoodBad > 0 && g.LossBad > 0) || g.LossGood > 0
}

// StationaryBadProb returns the chain's stationary probability of the bad
// state (0 when the chain never leaves good).
func (g GilbertElliott) StationaryBadProb() float64 {
	if g.PGoodBad <= 0 {
		return 0
	}
	if g.PBadGood <= 0 {
		return 1
	}
	return g.PGoodBad / (g.PGoodBad + g.PBadGood)
}

// StationaryLossProb returns the long-run per-frame loss rate implied by the
// transition and per-state loss probabilities.
func (g GilbertElliott) StationaryLossProb() float64 {
	pb := g.StationaryBadProb()
	return pb*g.LossBad + (1-pb)*g.LossGood
}

// Burst returns a Gilbert–Elliott configuration with the given stationary
// loss probability and mean bad-burst length in frames, using the classic
// parameterisation (no loss in good, total loss in bad). It is the
// convenient entry point for the loss-probability × burst-length sweep axes.
// A stationary loss L below 1 needs a mean burst of at least L/(1−L)
// frames, or the good state would have to leave with probability above 1.
// Burst repairs nothing: a loss probability outside [0, 1], a mean burst
// length that is not finite and at least one frame, or one too short for
// the loss yields a model that Plan.Validate rejects. The edge itself runs:
// at a burst length of exactly L/(1−L), rounding can put PGoodBad a few
// ulps above 1 (Burst(0.8, 4) computes 1.0000000000000002), and a PGoodBad
// within edgeULPs of 1 is taken as exactly 1. Total loss (lossProb 1) is
// the absorbing all-bad chain, whatever the burst length.
func Burst(lossProb, meanBurstLen float64) GilbertElliott {
	if lossProb == 0 {
		return GilbertElliott{}
	}
	if lossProb == 1 {
		return GilbertElliott{PGoodBad: 1, PBadGood: 0, LossBad: 1}
	}
	pBG := 1 / meanBurstLen
	pGB := lossProb * pBG / (1 - lossProb)
	if pGB > 1 && pGB <= 1+edgeULPs*epsilon {
		pGB = 1
	}
	return GilbertElliott{PGoodBad: pGB, PBadGood: pBG, LossBad: 1}
}

// edgeULPs is how far above 1, in units of epsilon (the spacing of
// float64 values just above 1), Burst still reads PGoodBad as 1. The
// three roundings in L·(1/len)/(1−L) stay well inside it.
const (
	edgeULPs = 4
	epsilon  = 0x1p-52
)

// Outage takes one node's radio off the air for a window of simulated time:
// it neither transmits energy nor hears arrivals, and any reception in
// progress when the window opens is destroyed. The node's upper layers keep
// running (timers, TCP state), so recovery exercises AODV repair and TCP
// retransmission, not a cold boot.
type Outage struct {
	Node packet.NodeID
	// Start is the absolute simulated time the radio goes down (>= 0).
	Start sim.Time
	// Duration is how long the radio stays down (> 0). A window extending
	// past the end of the run simply never recovers (the trial ends
	// mid-outage).
	Duration sim.Time
}

// Plan is a trial's complete impairment recipe. The zero value injects
// nothing and is free: no RNG streams are created, no telemetry is
// registered, and the PHY hot path pays only a nil check. The `canon`
// tags on Plan and its models are their keys in the service's cache-key
// encoding (see scenario.TrialConfig).
type Plan struct {
	// Bernoulli is the independent per-frame/per-bit error model.
	Bernoulli Bernoulli `canon:""`
	// Burst is the two-state Gilbert–Elliott bursty loss model. It composes
	// with Bernoulli: a frame must survive both.
	Burst GilbertElliott `canon:""`
	// ShadowSigmaDB enables log-normal shadowing on the propagation model
	// with the given standard deviation in dB (0 disables it).
	ShadowSigmaDB float64 `canon:"shadow_db"`
	// Outages lists scheduled radio outages.
	Outages []Outage `canon:"outage"`
}

// LinkEnabled reports whether any per-link reception model is active (and
// therefore whether an Injector is needed).
func (p Plan) LinkEnabled() bool { return p.Bernoulli.Enabled() || p.Burst.Enabled() }

// Enabled reports whether the plan injects anything at all.
func (p Plan) Enabled() bool {
	if p.LinkEnabled() || p.ShadowSigmaDB > 0 {
		return true
	}
	for _, o := range p.Outages {
		if o.Duration > 0 {
			return true
		}
	}
	return false
}

// Validate is the one home of the fault rules: every probability in
// [0, 1], a burst model's mean burst length finite and at least one frame,
// a finite non-negative shadowing sigma, and outages with a node ID >= 0, a
// finite start >= 0 and a finite duration > 0. Two windows on one node may
// neither overlap nor touch: the radio's down and up edges would then share
// a timestamp or nest, and the outcome would hang on the plan's order. It
// allocates nothing on success.
func (p Plan) Validate() error {
	checks := [...]struct {
		name string
		v    float64
	}{
		{"Bernoulli.LossProb", p.Bernoulli.LossProb},
		{"Bernoulli.BitErrorRate", p.Bernoulli.BitErrorRate},
		{"Burst.PGoodBad", p.Burst.PGoodBad},
		{"Burst.PBadGood", p.Burst.PBadGood},
		{"Burst.LossGood", p.Burst.LossGood},
		{"Burst.LossBad", p.Burst.LossBad},
	}
	// A bad state that loses frames needs bursts that end after at least
	// one frame. The absorbing all-bad chain (total loss) is the exception.
	if g := p.Burst; g.LossBad > 0 && !(g.PBadGood > 0 && g.PBadGood <= 1) && !(g.PGoodBad == 1 && g.PBadGood == 0) {
		return fmt.Errorf("fault: Burst mean burst length %v frames: want finite and at least 1", 1/g.PBadGood)
	}
	for _, c := range checks {
		if !(c.v >= 0 && c.v <= 1) {
			return fmt.Errorf("fault: %s = %v outside [0, 1]", c.name, c.v)
		}
	}
	if s := p.ShadowSigmaDB; !(s >= 0 && s < math.Inf(1)) {
		return fmt.Errorf("fault: ShadowSigmaDB = %v: want finite and >= 0", s)
	}
	for i, o := range p.Outages {
		inf := sim.Time(math.Inf(1))
		if o.Node < 0 || !(o.Start >= 0 && o.Start < inf) || !(o.Duration > 0 && o.Duration < inf) {
			return fmt.Errorf("fault: outage %d (node %v, start %v s, duration %v s): want node >= 0, finite start >= 0 and finite duration > 0",
				i, o.Node, float64(o.Start), float64(o.Duration))
		}
		for j, q := range p.Outages[:i] {
			if q.Node == o.Node && q.Start <= o.Start+o.Duration && o.Start <= q.Start+q.Duration {
				return fmt.Errorf("fault: outages %d and %d on node %v overlap or touch: merge them into one window", j, i, o.Node)
			}
		}
	}
	return nil
}

// OutageSeconds returns the total radio-down time across all outages,
// clamped to the run's end time — the value the fault/outage_seconds gauge
// reports.
func (p Plan) OutageSeconds(end sim.Time) float64 {
	var total float64
	for _, o := range p.Outages {
		stop := o.Start + o.Duration
		if stop > end {
			stop = end
		}
		start := o.Start
		if start < 0 {
			start = 0
		}
		if stop > start {
			total += float64(stop - start)
		}
	}
	return total
}

// Stats counts what the injector did, for telemetry and tests.
type Stats struct {
	// DroppedBernoulli and DroppedBurst count frames destroyed by each
	// model (a frame failing both is charged to Bernoulli, which draws
	// first).
	DroppedBernoulli int
	DroppedBurst     int
	// DroppedData counts dropped frames that carried application or
	// transport data — each one forces a MAC or TCP retransmission.
	DroppedData int
	// BurstTransitions counts Gilbert–Elliott state flips across all links.
	BurstTransitions int
}

// linkKey identifies one directed radio link.
type linkKey struct {
	src, dst packet.NodeID
}

// linkState is one link's RNG stream and burst-chain state.
type linkState struct {
	rng *sim.RNG
	bad bool
}

// Injector applies a Plan's per-link reception models. It implements the
// PHY's Impairment interface and is consulted once per otherwise-intact
// frame delivery; collision- or SINR-corrupted frames never reach it, so
// enabling it perturbs no other layer's randomness.
type Injector struct {
	plan  Plan
	base  *sim.RNG // fork-only seed stream; never drawn from
	links map[linkKey]*linkState
	stats Stats
}

// NewInjector builds an injector for plan drawing from rng (which the
// injector owns: per-link streams are forked from it by label, so creation
// order never shifts a stream). It panics on an invalid plan, like the rest
// of the scenario builders.
func NewInjector(plan Plan, rng *sim.RNG) *Injector {
	if err := plan.Validate(); err != nil {
		panic(err)
	}
	if rng == nil {
		panic("fault: NewInjector with nil RNG")
	}
	return &Injector{plan: plan, base: rng, links: make(map[linkKey]*linkState)}
}

// Stats returns the injector's counters so far.
func (in *Injector) Stats() Stats { return in.stats }

// link returns (creating on first use) the state for src→dst. The stream is
// forked by label from the never-drawn base, so it is identical no matter
// when the link first carries a frame.
func (in *Injector) link(src, dst packet.NodeID) *linkState {
	k := linkKey{src, dst}
	ls, ok := in.links[k]
	if !ok {
		ls = &linkState{rng: in.base.Fork(fmt.Sprintf("link/%v->%v", src, dst))}
		in.links[k] = ls
	}
	return ls
}

// DropRx implements the PHY impairment hook: it decides whether the frame
// p, arriving intact at dst, is destroyed by the configured error models.
func (in *Injector) DropRx(dst packet.NodeID, p *packet.Packet) bool {
	ls := in.link(p.Mac.Src, dst)
	drop := false

	if b := in.plan.Bernoulli; b.Enabled() {
		if ls.rng.Float64() < b.FrameLossProb(p.Size) {
			drop = true
			in.stats.DroppedBernoulli++
		}
	}

	if g := in.plan.Burst; g.Enabled() {
		lossP := g.LossGood
		if ls.bad {
			lossP = g.LossBad
		}
		lost := lossP > 0 && ls.rng.Float64() < lossP
		// Advance the chain once per frame, whatever the loss verdict.
		pFlip := g.PGoodBad
		if ls.bad {
			pFlip = g.PBadGood
		}
		if pFlip > 0 && ls.rng.Float64() < pFlip {
			ls.bad = !ls.bad
			in.stats.BurstTransitions++
		}
		if lost && !drop {
			in.stats.DroppedBurst++
		}
		drop = drop || lost
	}

	if drop && p.Mac.Subtype == packet.MacData {
		switch p.Type {
		case packet.TypeTCP, packet.TypeCBR, packet.TypeEBL:
			in.stats.DroppedData++
		}
	}
	return drop
}
