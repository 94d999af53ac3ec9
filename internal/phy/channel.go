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
	idx    *neighborIndex // nil: broadcast full-scans

	arriveFn func(any)
	arrFree  []*arrival
	// pf is the run's packet factory: receivers' private clones come from
	// its pool and go back to it (Radio.ReleaseFrame).
	pf    *packet.Factory
	stats ChannelStats
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
	c.idx = newNeighborIndex(c.prop)
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
	if c.idx != nil {
		c.idx.attach(r.slot, r, c.sched.Now())
	}
}

// SetMotion gives the spatial index kinematic visibility into an attached
// radio: its grid cell is revalidated on a deadline derived from the
// reported motion segment instead of every broadcast. The caller must
// pair this with MotionChanged notifications on every trajectory change.
// A radio without motion info is never culled. No-op while culling is
// disabled.
func (c *Channel) SetMotion(r *Radio, fn MotionFn) {
	if c.idx != nil && r.ch == c {
		c.idx.setMotion(r.slot, fn, c.sched.Now())
	}
}

// MotionChanged tells the spatial index that r's trajectory changed and
// its cached cell deadline no longer holds. No-op while culling is
// disabled or for radios without motion info.
func (c *Channel) MotionChanged(r *Radio) {
	if c.idx != nil && r.ch == c {
		c.idx.motionChanged(r.slot, c.sched.Now())
	}
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
	srcPos := src.pos()
	txFreq := src.Freq()
	if c.idx.active() {
		for _, slot := range c.idx.candidates(c.sched.Now(), srcPos) {
			c.offer(src, c.radios[slot], srcPos, p, duration, txFreq)
		}
		return
	}
	for _, dst := range c.radios {
		c.offer(src, dst, srcPos, p, duration, txFreq)
	}
}

// offer runs the per-receiver half of broadcast: the power check and, when
// it passes, the pooled first-bit arrival. The receiver's position is
// sampled exactly once, so received power and propagation delay are always
// computed from the same point of its motion segment.
func (c *Channel) offer(src, dst *Radio, srcPos geom.Vec2, p *packet.Packet, duration sim.Time, txFreq int) {
	if dst == src {
		return
	}
	dist := srcPos.Dist(dst.pos())
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
	if now := c.sched.Now(); now+delay >= now+duration {
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
