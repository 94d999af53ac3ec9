package phy

import (
	"vanetsim/internal/geom"
	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
)

// arrival carries one receiver's pending first-bit event from broadcast to
// delivery. Arrivals are the highest-volume scheduled payload in the
// simulator (one per in-range receiver per frame), so they are recycled
// through a per-channel free list and delivered via a single long-lived
// callback instead of a capturing closure per receiver.
type arrival struct {
	dst      *Radio
	p        *packet.Packet
	power    float64
	duration sim.Time
	freq     int
	// owned marks p as this arrival's private clone. In the common case an
	// arrival borrows the transmitter's packet instead: the first bit
	// reaches every receiver after the propagation delay, strictly before
	// the sender's end-of-transmission at +duration — the earliest moment
	// any MAC touches the frame again — so the original is immutable for
	// the whole flight and the deep copy can wait until a receiver actually
	// locks on. Loss paths (the vast majority under load) then never copy.
	owned bool
}

// ChannelStats counts medium-level arrival outcomes: every arrival the
// channel schedules either fires (and is then frequency-filtered or
// offered to the destination radio) or is still propagating when the run
// ends. The invariant checker audits this against the radios' own arrival
// counters.
type ChannelStats struct {
	Offered      int // arrival events scheduled toward in-range receivers
	Delivered    int // arrival events that fired
	FilteredFreq int // fired arrivals discarded: receiver tuned elsewhere
}

// Channel is the shared wireless medium. Every attached radio's
// transmission is offered to every other radio whose received power
// clears its carrier-sense threshold, after the speed-of-light delay.
//
// With culling enabled (EnableCulling) the candidate receivers are first
// narrowed to the transmitter's neighborhood through a uniform spatial
// grid, making per-transmission cost proportional to the neighbor count
// instead of the attached-radio count. Culling is exact: the grid's query
// disc conservatively covers the carrier-sense range of every radio pair,
// candidates are visited in attach order, and every culled radio would
// have failed the received-power check anyway — so an indexed run is
// byte-identical to a full-scan run.
type Channel struct {
	sched  *sim.Scheduler
	prop   Propagation
	radios []*Radio
	// tracks is the motion table, indexed by attach slot like radios:
	// broadcast reads receiver positions from it, one contiguous row per
	// radio, and the spatial index buckets radios by it.
	tracks []track
	idx    *neighborIndex // nil: broadcast full-scans

	arriveFn func(any)
	arrFree  []*arrival
	// pf is the run's packet factory: receivers' private clones come from
	// its pool and go back to it (Radio.ReleaseFrame).
	pf    *packet.Factory
	stats ChannelStats
}

// track is one radio's row in the channel's motion table: its MotionFn,
// the segment that function last reported and, with culling, the time the
// spatial index must re-bucket the radio by.
type track struct {
	fn    MotionFn // nil: no motion info; the radio's PositionFn places it
	m     Motion
	until sim.Time // the index's revalidation deadline (neighborIndex.resample)
}

// NewChannel creates a channel using the given propagation model. Its
// receivers clone frames out of, and release them back into, pf — the
// packet factory of the run.
func NewChannel(sched *sim.Scheduler, prop Propagation, pf *packet.Factory) *Channel {
	c := &Channel{sched: sched, prop: prop, pf: pf}
	c.arriveFn = func(a any) {
		ar := a.(*arrival)
		dst, p, power, duration, freq, owned := ar.dst, ar.p, ar.power, ar.duration, ar.freq, ar.owned
		*ar = arrival{}
		c.arrFree = append(c.arrFree, ar)
		c.stats.Delivered++
		if dst.Freq() != freq {
			c.stats.FilteredFreq++
			if owned {
				c.pf.Release(p) // tuned elsewhere: no energy seen, clone unused
			}
			return
		}
		dst.frameArrives(p, power, duration, owned)
	}
	return c
}

// EnableCulling switches broadcast to spatial-index neighbor culling. It
// may be called before or after radios attach, and is idempotent. Do not
// enable culling under a propagation model whose received power is not a
// monotone function of distance at the Range the model reports (log-normal
// shadowing, for instance, can lift a receiver beyond the median range
// above threshold — and culling it would also skip its RNG draw, changing
// every draw after it).
func (c *Channel) EnableCulling() {
	if c.idx != nil {
		return
	}
	c.idx = newNeighborIndex(c)
	for slot, r := range c.radios {
		c.idx.attach(slot, r, c.sched.Now())
	}
}

// CullingEnabled reports whether broadcast uses the spatial index.
func (c *Channel) CullingEnabled() bool { return c.idx != nil }

// Attach registers a radio on the medium.
func (c *Channel) Attach(r *Radio) {
	r.ch = c
	r.slot = len(c.radios)
	c.radios = append(c.radios, r)
	c.tracks = append(c.tracks, track{})
	if c.idx != nil {
		c.idx.attach(r.slot, r, c.sched.Now())
	}
}

// SetMotion enters an attached radio's motion into the channel's table:
// broadcast computes the radio's position from its current segment, and
// the spatial index revalidates its grid cell on a deadline derived from
// that segment instead of every broadcast. The caller must pair this with
// MotionChanged notifications on every trajectory change. A radio without
// motion info is placed by its PositionFn and never culled. A radio's
// first MotionFn stays; later calls are no-ops.
func (c *Channel) SetMotion(r *Radio, fn MotionFn) {
	if fn == nil || r.ch != c || c.tracks[r.slot].fn != nil {
		return
	}
	c.tracks[r.slot] = track{fn: fn, m: fn()}
	if c.idx != nil {
		c.idx.setMotion(r.slot, c.sched.Now())
	}
}

// MotionChanged tells the channel that r's trajectory changed: its row in
// the motion table is re-read, and the spatial index's cached cell
// deadline, which no longer holds, is replaced. No-op for radios without
// motion info.
func (c *Channel) MotionChanged(r *Radio) {
	if r.ch != c || c.tracks[r.slot].fn == nil {
		return
	}
	t := &c.tracks[r.slot]
	t.m = t.fn()
	if c.idx != nil {
		c.idx.resample(int32(r.slot), c.sched.Now())
	}
}

// position returns the current position of the radio attached at slot:
// from its row in the motion table, or from its PositionFn when it has no
// motion info or its segment has not started yet.
func (c *Channel) position(slot int, now sim.Time) geom.Vec2 {
	if t := &c.tracks[slot]; t.fn != nil && t.m.Start <= now {
		return t.m.at(now)
	}
	return c.radios[slot].pos()
}

// Radios returns all attached radios.
func (c *Channel) Radios() []*Radio { return c.radios }

// Propagation returns the channel's propagation model.
func (c *Channel) Propagation() Propagation { return c.prop }

// broadcast delivers a transmission from src to every other radio above
// its carrier-sense threshold that is tuned to the same frequency channel
// when the first bit arrives. A receiver that locks onto the frame gets
// its own clone of the packet (made at lock time) so that forwarding
// never aliases.
func (c *Channel) broadcast(src *Radio, p *packet.Packet, duration sim.Time) {
	now := c.sched.Now()
	srcPos := c.position(src.slot, now)
	txFreq := src.Freq()
	if c.idx.active() {
		for _, slot := range c.idx.candidates(now, srcPos) {
			c.offer(src, int(slot), srcPos, p, duration, txFreq)
		}
		return
	}
	for slot := range c.radios {
		c.offer(src, slot, srcPos, p, duration, txFreq)
	}
}

// offer runs the per-receiver half of broadcast for the radio attached at
// slot: the power check and, when it passes, the pooled first-bit arrival.
// The receiver's position is sampled exactly once, so received power and
// propagation delay are always computed from the same point of its motion
// segment.
func (c *Channel) offer(src *Radio, slot int, srcPos geom.Vec2, p *packet.Packet, duration sim.Time, txFreq int) {
	dst := c.radios[slot]
	if dst == src {
		return
	}
	now := c.sched.Now()
	dist := srcPos.Dist(c.position(slot, now))
	pr := c.prop.RxPower(src.Params.TxPowerW, dist)
	if pr < dst.Params.CSThreshW {
		return // below the noise floor: invisible
	}
	delay := sim.Time(dist / SpeedOfLight)
	var ar *arrival
	if n := len(c.arrFree); n > 0 {
		ar = c.arrFree[n-1]
		c.arrFree = c.arrFree[:n-1]
	} else {
		ar = &arrival{}
	}
	ap, owned := p, false
	if now+delay >= now+duration {
		// Pathological geometry: the first bit would arrive at or after the
		// sender's end of transmission, when the MAC is free to mutate or
		// release the frame. Fall back to the eager per-receiver clone.
		ap, owned = c.pf.Clone(p), true
	}
	*ar = arrival{dst: dst, p: ap, power: pr, duration: duration, freq: txFreq, owned: owned}
	c.stats.Offered++
	c.sched.ScheduleArgKind(sim.KindPHY, delay, c.arriveFn, ar)
}

// Stats returns the channel's arrival counters.
func (c *Channel) Stats() ChannelStats { return c.stats }

// FreqFn reports a radio's current frequency channel. It is sampled at
// transmit time (sender) and first-bit arrival time (receiver), which is
// exact for slot-synchronised hopping schemes.
type FreqFn func() int

// PositionFn reports a node's current position; radios call it at
// transmission and reception time so moving vehicles attenuate naturally.
type PositionFn func() geom.Vec2

// Motion is a radio's current motion segment: from Start on, the node
// follows the constant-acceleration law until its next trajectory change.
type Motion struct {
	Start sim.Time
	geom.Kinematics
}

// at returns the segment's position at t.
func (m Motion) at(t sim.Time) geom.Vec2 { return m.At(float64(t - m.Start)) }

// MotionFn reports a node's current motion segment. The contract the
// channel depends on: between two calls with no MotionChanged
// notification in between, the node moves exactly along the reported
// segment, and its PositionFn reports the segment's position. A
// mobility.Vehicle satisfies this: its trajectory is piecewise
// constant-acceleration, every segment starts when it is made, and every
// segment replacement fires OnMotionChange.
type MotionFn func() Motion

// MAC is the upward interface a radio delivers into. The 802.11 MAC uses
// all three callbacks; the TDMA MAC ignores the carrier-sense pair.
type MAC interface {
	// RecvFromPhy delivers a frame whose last bit has arrived. corrupted
	// is true when the frame overlapped another transmission and lost
	// (collision without capture).
	RecvFromPhy(p *packet.Packet, corrupted bool)
	// ChannelBusy signals the medium transitioned idle -> busy as seen by
	// this radio (physical carrier sense).
	ChannelBusy()
	// ChannelIdle signals the medium transitioned busy -> idle. Idle
	// notifications can be delivered redundantly when several busy periods
	// end at the same instant; implementations must be idempotent.
	ChannelIdle()
}
