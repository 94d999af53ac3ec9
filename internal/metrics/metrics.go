// Package metrics computes the paper's performance measures from
// simulation observations: per-packet one-way delay as a function of
// packet ID (Figs. 5–14), binned throughput over time (Figs. 7, 10, 15),
// transient/steady-state separation, and the summary statistics and
// confidence analysis reported in the text.
package metrics

import (
	"fmt"
	"math"

	"vanetsim/internal/sim"
	"vanetsim/internal/stats"
)

// DelayPoint is one packet's one-way delay, indexed by its per-flow packet
// ID (the x-axis of the paper's delay figures).
type DelayPoint struct {
	ID    int
	Delay sim.Time
}

// DelaySeries accumulates one flow's delay measurements in arrival order.
type DelaySeries struct {
	points []DelayPoint
}

// Add appends a measurement.
func (s *DelaySeries) Add(id int, d sim.Time) {
	s.points = append(s.points, DelayPoint{ID: id, Delay: d})
}

// Points returns the series in arrival order.
func (s *DelaySeries) Points() []DelayPoint { return s.points }

// Len returns the number of measurements.
func (s *DelaySeries) Len() int { return len(s.points) }

// Delays returns just the delay values, in seconds.
func (s *DelaySeries) Delays() []float64 {
	out := make([]float64, len(s.points))
	for i, p := range s.points {
		out[i] = float64(p.Delay)
	}
	return out
}

// Summary returns avg/min/max over the whole series — the per-vehicle
// numbers the paper reports.
func (s *DelaySeries) Summary() stats.Summary { return stats.Summarize(s.Delays()) }

// First returns the initial packet's delay — the figure the paper's
// stopping-distance analysis is built on ("the one-way delay of the
// initial packet will be used ... since this will be the first indication
// to trailing vehicles that a lead vehicle is applying its brakes").
// It returns 0, false for an empty series.
func (s *DelaySeries) First() (sim.Time, bool) {
	if len(s.points) == 0 {
		return 0, false
	}
	return s.points[0].Delay, true
}

const (
	// mserBatch is MSER-5's batch size.
	mserBatch = 5
	// mserTie is the margin by which a later cut's standard error must
	// beat the current best's: near-ties keep the earliest cut, so a long
	// perfectly flat steady state is not over-trimmed by float noise.
	mserTie = 1e-12
	// mserMaxAbs bounds the batch means the fast filter accepts. Below it
	// no sum of squares can overflow; anything larger, or non-finite,
	// replays the rule on exact standard errors only.
	mserMaxAbs = 1e100
	// unitRoundoff is u = 2⁻⁵³, the float64 rounding-error unit.
	unitRoundoff = 0x1p-53
)

// TruncationIndex locates the end of the warm-up transient with the MSER-5
// rule (White 1997): batch the series in fives, then choose the truncation
// that minimises the standard error of the remaining mean. Cuts range over
// the first half of the batches (the standard MSER guard), each one scored
// as stats.Summarize(means[d:]).Std/√(n−d), and scanned in order: a later
// cut replaces the best only when it is smaller by more than 1e-12. It
// returns an index into Points(); 0 means no detectable transient.
//
// Scoring every cut with Summarize costs O(n²). Instead one backward pass
// accumulates suffix sums of the batch means and gives every cut a fast
// standard error plus a proven bound on its distance from the Summarize
// value (mserEstimate). The sequential scan then runs on the fast values;
// only a comparison their bounds cannot settle scores the two cuts
// exactly. The cut is therefore always the one the exact scan picks, in
// O(n) unless the candidates are all near-ties.
func (s *DelaySeries) TruncationIndex() int {
	n := len(s.points) / mserBatch
	if n < 4 {
		return 0
	}
	means := make([]float64, n)
	maxAbs := 0.0
	for b := range means {
		sum := 0.0
		for _, p := range s.points[b*mserBatch : (b+1)*mserBatch] {
			sum += float64(p.Delay)
		}
		means[b] = sum / mserBatch
		maxAbs = max(maxAbs, math.Abs(means[b])) // NaN-propagating
	}
	exact := func(d int) float64 {
		sm := stats.Summarize(means[d:])
		return sm.Std / math.Sqrt(float64(sm.N))
	}
	last := n / 2

	// Backward pass: suffix sums of y = mean − c for every cut. Every cut
	// keeps means[last:], so shifting by their mean keeps Σy² near the
	// centred sum of squares (and the bounds tight) even when the series
	// ends on a spike. Cut 0 always beats the scan's initial +Inf, so the
	// replay starts at cut 1 with the best's exact standard error unknown
	// (NaN).
	cuts := make([]mserCut, last+1)
	first, bestSE := 1, math.NaN()
	if maxAbs <= mserMaxAbs {
		c := 0.0
		for _, m := range means[last:] {
			c += m
		}
		c /= float64(n - last)
		var s1, s2, suffixMax float64
		for i := n - 1; i >= 0; i-- {
			y := means[i] - c
			s1 += y
			s2 += y * y
			suffixMax = max(suffixMax, math.Abs(means[i]))
			if i <= last {
				cuts[i] = mserEstimate(s1, s2, suffixMax, n-i)
			}
		}
	} else {
		// Outside the filter's range (or non-finite): an infinite bound
		// leaves every comparison to the exact scores, from +Inf at cut 0.
		for i := range cuts {
			cuts[i].err = math.Inf(1)
		}
		first, bestSE = 0, math.Inf(1)
	}

	// Replay the scan, scoring exactly only what the bounds leave open.
	bestD := 0
	for d := first; d <= last; d++ {
		below, decided := cuts[d].below(cuts[bestD])
		if !decided {
			if math.IsNaN(bestSE) {
				bestSE = exact(bestD)
			}
			se := exact(d)
			if below = se < bestSE-mserTie; below {
				bestSE = se
			}
		} else if below {
			bestSE = math.NaN()
		}
		if below {
			bestD = d
		}
	}
	return bestD * mserBatch
}

// mserCut is one candidate cut's fast standard error and a bound on its
// absolute distance from the exact one.
type mserCut struct{ se, err float64 }

// mserEstimate scores a cut that keeps k ≥ 2 batch means m_i from the
// suffix sums S1 = Σy and S2 = Σy² of y_i = fl(m_i − c), where M bounds
// |m_i|. The fast standard error is √(max(F,0)/((k−1)k)) with
// F = S2 − S1·(S1/k); the exact one is √(SS/((k−1)k)) where SS is
// Summarize's two-pass sum of squares. Both approximate T, the true
// centred sum of squares of the m_i. With u = 2⁻⁵³, γ_j = ju/(1−ju),
// Y2 = Σy² in exact arithmetic, and using T ≤ Σ(m_i−c)² ≤ (1+u)²·Y2:
//
//   - SS: Summarize's mean is off by |δ| ≤ γ_{k+1}M, so in exact
//     arithmetic its deviations square-sum to T + kδ²; the squares and
//     their sum add a relative γ_{k+2}. |SS − T| ≤ γ_{k+2}T + (1+γ)kδ².
//   - Rounding y_i perturbs each by at most u|m_i−c|, moving the centred
//     sum Y2 − Y1²/k by at most (2u+u²)Σ(m_i−c)² (it is the squared
//     norm of a projection of y).
//   - F: S1 is off by γ_{k−1}Σ|y| ≤ γ_{k−1}√(k·Y2), which moves S1²/k by
//     ≈2γ_{k−1}·Y2 (S1²/k ≤ Y2 by Cauchy–Schwarz); S2 by γ_k·Y2; the
//     product, quotient and difference add ≈4u·Y2.
//
// Together |F − SS| ≤ 1.1(4k+10)u·S2 + 1.1k((k+1)uM)², which the bound
// below covers with a safety factor of at least 1.8:
// 8(k+4)u·S2 + 2k((k+1)uM)².
// Dividing by (k−1)k gives E, and |√a − √b| ≤ min(√E, E/√b) carries it
// through the square root. The roundings of each final quotient and
// square root (≤ 5u relative on either side) add 10u·se, doubled again.
// Underflow, where the relative model fails, adds under 1e-150 to any
// standard error; the 1e-140 floor covers it.
func mserEstimate(s1, s2, m float64, k int) mserCut {
	const u = unitRoundoff
	kf := float64(k)
	se := math.Sqrt(max(s2-s1*(s1/kf), 0) / ((kf - 1) * kf))
	dm := (kf + 1) * u * m
	e := (8*(kf+4)*u*s2 + 2*kf*dm*dm) / ((kf - 1) * kf)
	eSqrt := math.Sqrt(e)
	if se > 0 {
		eSqrt = min(eSqrt, e/se)
	}
	return mserCut{se: se, err: 2*(eSqrt+10*u*se) + 1e-140}
}

// below settles "exact SE of c < exact SE of best − mserTie" from the two
// bounds, if they allow it. The margin g absorbs the roundings of these
// comparisons and of the tie subtraction itself.
func (c mserCut) below(best mserCut) (below, decided bool) {
	g := 4 * unitRoundoff * (c.se + c.err + best.se + best.err + mserTie)
	if c.se+c.err+g < best.se-best.err-mserTie {
		return true, true
	}
	if c.se-c.err-g >= best.se+best.err-mserTie {
		return false, true
	}
	return false, false
}

// SteadyState returns the post-transient portion (per MSER-5) and its
// mean level — the paper's "steady state with a one-way delay of
// approximately X seconds".
func (s *DelaySeries) SteadyState() ([]DelayPoint, float64) {
	cut := s.TruncationIndex()
	rest := s.points[cut:]
	if len(rest) == 0 {
		return nil, 0
	}
	sum := 0.0
	for _, p := range rest {
		sum += float64(p.Delay)
	}
	return rest, sum / float64(len(rest))
}

// TPoint is one throughput bin: the average rate over [T, T+bin).
type TPoint struct {
	T    sim.Time
	Mbps float64
}

// Throughput bins received bytes into fixed intervals, replicating the
// paper's Tcl `record` procedure ($bw/$time*8 sampled periodically).
type Throughput struct {
	bin      sim.Time
	bytes    []int
	rejected int
}

// NewThroughput creates a sampler with the given bin width. The paper's
// record interval (0.5 s here) sets the time resolution of Figs. 7/10/15.
func NewThroughput(bin sim.Time) *Throughput {
	if bin <= 0 {
		panic("metrics: non-positive throughput bin")
	}
	return &Throughput{bin: bin}
}

// Bin returns the bin width.
func (t *Throughput) Bin() sim.Time { return t.bin }

// Add records n bytes received at time at. A negative time or byte count
// is a caller bug (e.g. a corrupted delivery timestamp); the sample is
// rejected with an error and counted, rather than panicking mid-run, so
// the invariant checker can surface it with simulation-time context.
func (t *Throughput) Add(at sim.Time, n int) error {
	if at < 0 || n < 0 {
		t.rejected++
		return fmt.Errorf("metrics: rejected sample at t=%v with %d bytes (negative time or byte count)", at, n)
	}
	idx := int(at / t.bin)
	for len(t.bytes) <= idx {
		t.bytes = append(t.bytes, 0)
	}
	t.bytes[idx] += n
	return nil
}

// Rejected returns how many samples Add refused.
func (t *Throughput) Rejected() int { return t.rejected }

// SeriesUntil returns the binned rate series covering [0, end), including
// empty bins — the paper's figures show the silent prefix before
// communication starts. When end is not a multiple of the bin width, the
// final bin covers only [start, end) and its rate is normalised by that
// actual width, not the full bin width, so a truncated run does not
// understate its closing throughput.
func (t *Throughput) SeriesUntil(end sim.Time) []TPoint {
	n := int(math.Ceil(float64(end / t.bin)))
	out := make([]TPoint, 0, n)
	for i := 0; i < n; i++ {
		b := 0
		if i < len(t.bytes) {
			b = t.bytes[i]
		}
		start := sim.Time(float64(i)) * t.bin
		width := t.bin
		if i == n-1 && end-start < width {
			width = end - start
		}
		out = append(out, TPoint{
			T:    start,
			Mbps: float64(b) * 8 / float64(width) / 1e6,
		})
	}
	return out
}

// RatesMbps returns just the Mbps values of SeriesUntil(end).
func (t *Throughput) RatesMbps(end sim.Time) []float64 {
	series := t.SeriesUntil(end)
	out := make([]float64, len(series))
	for i, p := range series {
		out[i] = p.Mbps
	}
	return out
}

// Summary reports avg/min/max throughput over [0, end) — with the silent
// prefix included, which is why the paper's minima are 0 Mbps.
func (t *Throughput) Summary(end sim.Time) stats.Summary {
	return stats.Summarize(t.RatesMbps(end))
}

// CI runs the paper's confidence analysis: batch-means 95% (or level)
// interval over the bins in [0, end).
func (t *Throughput) CI(end sim.Time, nbatches int, level float64) stats.CI {
	return stats.BatchMeansCI(t.RatesMbps(end), nbatches, level)
}

// TotalBytes returns all bytes recorded.
func (t *Throughput) TotalBytes() int {
	sum := 0
	for _, b := range t.bytes {
		sum += b
	}
	return sum
}
