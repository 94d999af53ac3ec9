package phy

import (
	"math"
	"slices"

	"vanetsim/internal/geom"
	"vanetsim/internal/sim"
)

// rangeMargin widens the cull radius by a relative epsilon so that a
// receiver sitting numerically on the carrier-sense boundary — where
// Propagation.Range and Propagation.RxPower may round the last bit in
// opposite directions — is always iterated. Culling must be conservative:
// it may only skip radios the power check would have skipped anyway.
const rangeMargin = 1e-9

// slackFraction sets the stale-position allowance as a fraction of the
// cull range. Larger slack means fewer re-bucketing samples but a wider
// query disc; a quarter of the carrier-sense range keeps both costs small.
const slackFraction = 0.25

// neighborIndex culls broadcast receivers to the transmitter's
// neighborhood. It keeps a uniform grid of slack-stale radio positions:
// each indexed radio's stored position is guaranteed within slack metres
// of its true position until the radio's revalidation deadline, derived
// from its current motion segment (a vehicle doing 30 m/s with a 130 m
// slack needs re-bucketing every ~4 s; a parked one never). Each deadline
// lives in the radio's row of the channel's motion table (track.until) and
// the index keeps only the earliest one: a broadcast before it costs one
// comparison, and the first broadcast after it sweeps the table once,
// re-bucketing every expired row. Deadlines are processed lazily inside
// broadcast — never via scheduler events, which would perturb the sched/*
// telemetry the golden digests pin.
//
// Radios attached without motion information are never culled: they join
// the always-candidate list, so an index over a partially mobile world
// stays exact and merely degrades toward the full scan.
//
// Determinism contract: the candidate list is sorted by attach slot, so
// culled iteration visits receivers in exactly the relative order the full
// scan would, and the cull disc conservatively covers the carrier-sense
// range of every attached radio pair — the index changes who is iterated,
// never what is delivered.
type neighborIndex struct {
	ch   *Channel // motion table and propagation model
	grid *geom.Grid

	next      sim.Time // earliest revalidation deadline in the motion table
	unindexed []int32  // attach slots without motion info, ascending

	// Cull-range inputs, maintained over attached radios. The query disc
	// must cover the worst pair: strongest possible transmitter heard by
	// the most sensitive possible receiver.
	maxTxW float64
	minCSW float64

	cullRange float64 // prop.Range(maxTxW, minCSW), cached
	slack     float64 // stale-position bound baked into the query radius

	scratch []int32 // grid query buffer
	merged  []int32 // grid hits merged with the unindexed list
}

func newNeighborIndex(ch *Channel) *neighborIndex {
	return &neighborIndex{ch: ch, minCSW: math.Inf(1), next: sim.Forever}
}

// active reports whether culling is usable: a finite positive cull range
// exists. A world with a non-positive carrier-sense threshold has infinite
// range and must fall back to the full scan.
func (ix *neighborIndex) active() bool {
	return ix != nil && ix.cullRange > 0 && !math.IsInf(ix.cullRange, 1)
}

// attach registers a newly attached radio at slot. Radios start unindexed;
// one that already has motion info (culling enabled after SetMotion) is
// indexed at once, so that once the grid exists a row is indexed exactly
// when it has motion info — the set refresh sweeps.
func (ix *neighborIndex) attach(slot int, r *Radio, now sim.Time) {
	ix.unindexed = append(ix.unindexed, int32(slot))
	changed := false
	if r.Params.TxPowerW > ix.maxTxW {
		ix.maxTxW = r.Params.TxPowerW
		changed = true
	}
	if r.Params.CSThreshW < ix.minCSW {
		ix.minCSW = r.Params.CSThreshW
		changed = true
	}
	if changed {
		ix.recomputeRange(now)
	}
	if ix.ch.tracks[slot].fn != nil {
		ix.setMotion(slot, now)
	}
}

// recomputeRange refreshes the cached cull range and slack after the
// attached-radio extremes moved, rebuilding the grid when the query disc
// outgrew the cell size. A non-positive or infinite range (degenerate
// radio parameters) leaves the index inactive and broadcast full-scanning.
func (ix *neighborIndex) recomputeRange(now sim.Time) {
	if ix.maxTxW <= 0 || ix.minCSW <= 0 || math.IsInf(ix.minCSW, 1) {
		ix.cullRange = 0
		return
	}
	ix.cullRange = ix.ch.prop.Range(ix.maxTxW, ix.minCSW)
	ix.slack = ix.cullRange * slackFraction
	if !ix.active() {
		return
	}
	radius := ix.queryRadius()
	if ix.grid == nil {
		ix.grid = geom.NewGrid(radius)
		// Promote motion-bearing radios that attached before any radio
		// gave the index a finite range to build cells from.
		keep := ix.unindexed[:0]
		for _, s := range ix.unindexed {
			if ix.ch.tracks[s].fn != nil {
				ix.resample(s, now)
			} else {
				keep = append(keep, s)
			}
		}
		ix.unindexed = keep
	} else if radius > ix.grid.Cell() {
		ix.grid.Rebuild(radius)
	}
}

// queryRadius is the disc that conservatively covers every radio whose
// true position could clear any attached receiver's carrier-sense
// threshold: the worst-pair range, a relative epsilon for boundary
// rounding, and the stale-position slack.
func (ix *neighborIndex) queryRadius() float64 {
	return ix.cullRange*(1+rangeMargin) + ix.slack
}

// setMotion upgrades slot, whose motion the channel's table now holds,
// from unindexed to indexed, sampling its position now. Before the grid
// materialises the radio simply stays unindexed (an always-candidate);
// recomputeRange promotes it when the first finite cull range arrives.
func (ix *neighborIndex) setMotion(slot int, now sim.Time) {
	if ix.grid == nil {
		return
	}
	i := slices.Index(ix.unindexed, int32(slot))
	if i < 0 {
		return // promoted by recomputeRange
	}
	ix.unindexed = slices.Delete(ix.unindexed, i, i+1)
	ix.resample(int32(slot), now)
}

// resample stores slot's current position and writes its next revalidation
// deadline, from the current motion segment, into its motion-table row. A
// radio whose motion changed is resampled at once: its previous deadline
// was computed from a trajectory that no longer holds.
func (ix *neighborIndex) resample(slot int32, now sim.Time) {
	if ix.grid == nil {
		// No finite cull range yet; the index is inactive and broadcast
		// full-scans, so positions need no maintenance.
		return
	}
	t := &ix.ch.tracks[slot]
	ix.grid.Update(slot, ix.ch.position(int(slot), now))
	t.until = now + ix.horizon(t.m.VelAt(float64(now-t.m.Start)), t.m.Acc)
	ix.next = min(ix.next, t.until)
}

// horizon bounds how long the sampled position stays within slack of the
// true one: the first t with |v|·t + ½|a|·t² = slack, a conservative
// (triangle-inequality) displacement bound for a node moving at vel with
// constant acceleration acc.
func (ix *neighborIndex) horizon(vel, acc geom.Vec2) sim.Time {
	v, a := vel.Len(), acc.Len()
	switch {
	case a == 0 && v == 0:
		return sim.Forever
	case a == 0:
		return sim.Time(ix.slack / v)
	default:
		return sim.Time((math.Sqrt(v*v+2*a*ix.slack) - v) / a)
	}
}

// refresh re-buckets every indexed radio whose revalidation deadline has
// passed. Before the earliest deadline it returns at once; after it, one
// sweep of the motion table re-buckets the expired rows and finds the new
// earliest deadline. Re-bucket order cannot reach any output: QueryInto
// orders its hits by slot.
func (ix *neighborIndex) refresh(now sim.Time) {
	if now < ix.next {
		return
	}
	ix.next = sim.Forever
	for slot := range ix.ch.tracks {
		t := &ix.ch.tracks[slot]
		switch {
		case t.fn == nil:
			// Unindexed: no deadline.
		case t.until <= now:
			ix.resample(int32(slot), now)
		default:
			ix.next = min(ix.next, t.until)
		}
	}
}

// candidates returns the attach slots that may hear a transmission from
// srcPos, in ascending slot order: grid hits within the query disc merged
// with the always-candidate unindexed radios. The returned slice is reused
// across calls.
func (ix *neighborIndex) candidates(now sim.Time, srcPos geom.Vec2) []int32 {
	ix.refresh(now)
	hits := ix.grid.QueryInto(ix.scratch[:0], srcPos, ix.queryRadius())
	ix.scratch = hits[:0]
	if len(ix.unindexed) == 0 {
		return hits
	}
	// Merge two ascending slot lists.
	out := ix.merged[:0]
	i, j := 0, 0
	for i < len(hits) && j < len(ix.unindexed) {
		if hits[i] < ix.unindexed[j] {
			out = append(out, hits[i])
			i++
		} else {
			out = append(out, ix.unindexed[j])
			j++
		}
	}
	out = append(out, hits[i:]...)
	out = append(out, ix.unindexed[j:]...)
	ix.merged = out
	return out
}
