package phy

import (
	"errors"
	"fmt"

	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
	"vanetsim/internal/span"
)

// Transmit error sentinels. Both indicate a MAC-layer programming error;
// the radio refuses the frame, counts it in Stats.TxRefused, and returns a
// wrapped error instead of panicking so a malformed scenario degrades a
// run rather than crashing a sweep.
var (
	// ErrTxWhileTx is returned when Transmit is called on a radio that is
	// already transmitting.
	ErrTxWhileTx = errors.New("phy: transmit while transmitting")
	// ErrTxDuration is returned for a non-positive transmit duration.
	ErrTxDuration = errors.New("phy: non-positive transmit duration")
)

// State is the radio transceiver state.
type State uint8

// Radio states.
const (
	Idle State = iota
	Receiving
	Transmitting
)

var stateNames = [...]string{"idle", "rx", "tx"}

// String returns the state name.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// reception tracks the frame the radio is currently locked onto. Receptions
// are recycled through a per-radio free list: every reception's lifetime
// ends in finishReception (delivered or aborted), which releases it.
type reception struct {
	p         *packet.Packet
	power     float64
	end       sim.Time
	corrupted bool
	// maxInterfW is the worst aggregate interference seen during the
	// reception (SINR mode only).
	maxInterfW float64
}

// interfEntry carries one interferer's power until its end-of-arrival
// event; pooled like receptions.
type interfEntry struct {
	power float64
}

// Stats counts radio-level outcomes for diagnostics and tests. Every
// first-bit arrival the channel delivers (RxArrivals) ends in exactly one
// of the terminal counters below or is still in flight at the end of the
// run — the conservation identity the invariant checker audits.
type Stats struct {
	TxFrames      int // frames transmitted
	TxRefused     int // Transmit calls rejected with an error (MAC bug guard)
	RxArrivals    int // first-bit arrivals offered by the channel
	RxOK          int // frames delivered intact
	RxCollided    int // frames delivered corrupted (collision, no capture)
	RxCaptured    int // interferers suppressed by capture
	RxOverlapLost int // arrivals lost overlapping a locked reception (no capture credit)
	RxWhileTx     int // arrivals ignored because the radio was transmitting
	RxBelowThresh int // arrivals sensed but too weak to decode
	RxAbortedByTx int // in-progress receptions destroyed by our own transmission

	// Fault-injection outcomes. These stay zero unless an Impairment is
	// installed or the radio is taken down (see SetDown); no silent path
	// exists — every frame a fault destroys is counted in exactly one of
	// them, mirroring the RxAbortedByTx accounting.
	RxImpaired         int // intact receptions destroyed by injected impairment
	RxDroppedOutage    int // arrivals (or in-progress receptions) lost to a radio outage
	TxSuppressedOutage int // transmissions attempted while the radio was down
}

// Impairment is the pluggable fault-injection hook consulted once for every
// frame that would otherwise be delivered intact: returning true destroys
// the frame (it reaches the MAC marked corrupted, like a failed checksum).
// Collision- or SINR-corrupted frames are never offered to it, so an
// impairment model's randomness is consumed only for genuine decisions. A
// nil impairment costs one pointer check per delivery and nothing else.
type Impairment interface {
	// DropRx judges the frame p arriving intact at radio dst.
	DropRx(dst packet.NodeID, p *packet.Packet) bool
}

// Radio is one node's transceiver. It is half-duplex: transmitting blinds
// it to arrivals, and arrivals overlapping in time collide unless one
// exceeds the other by the capture ratio.
type Radio struct {
	// Params holds the RF constants (thresholds, power).
	Params RadioParams

	id    packet.NodeID
	sched *sim.Scheduler
	ch    *Channel
	slot  int // attach index on ch; the spatial index keys per-radio state by it
	pos   PositionFn
	mac   MAC
	freq  FreqFn

	state     State
	rx        *reception
	busyUntil sim.Time
	idleTimer sim.Timer
	down      bool
	imp       Impairment
	spans     *span.Recorder

	// interfW is the aggregate power of all arrivals not locked onto,
	// maintained only in SINR mode.
	interfW float64

	// Hot-path callbacks, allocated once per radio so per-event scheduling
	// captures nothing, plus free lists for the per-event payload structs.
	txDoneFn    func()
	idleFn      func()
	finishRecFn func(any)
	interfEndFn func(any)
	recFree     []*reception
	interfFree  []*interfEntry

	stats Stats
}

// NewRadio creates a radio for node id at the position reported by pos.
// Attach it to a Channel and set its MAC with SetMAC before use.
func NewRadio(id packet.NodeID, sched *sim.Scheduler, pos PositionFn, params RadioParams) *Radio {
	if pos == nil {
		panic("phy: nil position function")
	}
	r := &Radio{id: id, sched: sched, pos: pos, Params: params}
	r.txDoneFn = func() {
		r.state = Idle
		r.maybeIdle()
	}
	r.idleFn = func() {
		r.idleTimer = sim.Timer{}
		r.maybeIdle()
	}
	r.finishRecFn = func(a any) { r.finishReception(a.(*reception)) }
	r.interfEndFn = func(a any) {
		e := a.(*interfEntry)
		r.interfW -= e.power
		if r.interfW < 0 {
			r.interfW = 0 // floating-point drift floor
		}
		r.interfFree = append(r.interfFree, e)
	}
	return r
}

// ID returns the owning node's ID.
func (r *Radio) ID() packet.NodeID { return r.id }

// SetMAC wires the MAC layer that receives frames and carrier-sense
// transitions.
func (r *Radio) SetMAC(m MAC) { r.mac = m }

// SetFreqFn installs a frequency-channel provider, sampled at transmit
// and arrival time. Frequency-hopping MACs install a hop-sequence
// function; the default (nil) keeps the radio on channel 0.
func (r *Radio) SetFreqFn(fn FreqFn) { r.freq = fn }

// Freq returns the radio's current frequency channel.
func (r *Radio) Freq() int {
	if r.freq == nil {
		return 0
	}
	return r.freq()
}

// SetImpairment installs a fault-injection model consulted on every intact
// reception. Pass nil to remove it.
func (r *Radio) SetImpairment(imp Impairment) { r.imp = imp }

// SetSpans installs the causal span recorder. A nil recorder (the default)
// is the disarmed state and costs each PHY event one nil comparison.
func (r *Radio) SetSpans(rec *span.Recorder) { r.spans = rec }

// SetDown takes the radio off the air (true) or recovers it (false). A down
// radio transmits no energy and hears no arrivals; a reception in progress
// when it goes down is destroyed and counted in RxDroppedOutage. Recovery
// re-checks carrier state so a CSMA MAC waiting on an idle medium is not
// left stuck.
func (r *Radio) SetDown(down bool) {
	if r.down == down {
		return
	}
	r.down = down
	if !down {
		r.maybeIdle()
		return
	}
	if r.rx != nil {
		// The locked frame is lost; its end-of-frame event releases the
		// reception struct when it finds r.rx changed.
		r.stats.RxDroppedOutage++
		r.spans.Record(span.OpRxLost, span.CauseOutage, r.id, r.rx.p)
		r.rx = nil
	}
	if r.state == Receiving {
		r.state = Idle
	}
}

// Down reports whether the radio is currently in an injected outage.
func (r *Radio) Down() bool { return r.down }

// State returns the transceiver state.
func (r *Radio) State() State { return r.state }

// Stats returns the radio's counters.
func (r *Radio) Stats() Stats { return r.stats }

// ReceptionInProgress reports whether a locked reception is still in
// flight — the one arrival a run-end conservation audit must not expect a
// terminal counter for.
func (r *Radio) ReceptionInProgress() bool { return r.rx != nil }

// newReception returns a recycled (or new) reception initialised for a
// locked-onto frame.
func (r *Radio) newReception(p *packet.Packet, power float64, end sim.Time) *reception {
	if n := len(r.recFree); n > 0 {
		rec := r.recFree[n-1]
		r.recFree = r.recFree[:n-1]
		*rec = reception{p: p, power: power, end: end}
		return rec
	}
	return &reception{p: p, power: power, end: end}
}

// releaseReception returns a finished reception to the free list, dropping
// its packet reference so the pool pins no frames.
func (r *Radio) releaseReception(rec *reception) {
	rec.p = nil
	r.recFree = append(r.recFree, rec)
}

// ReleaseFrame returns a delivered frame to the run's packet pool. Every
// delivered frame is the receiver's private clone, so the MAC may release
// the frames it discards in RecvFromPhy (overheard unicasts, control
// frames, duplicates, corrupted frames); frames it passes up are released
// by the network layer. p is valid only until this call: the packet, its
// TCP header and its payload are all reused by later clones.
func (r *Radio) ReleaseFrame(p *packet.Packet) { r.ch.pf.Release(p) }

// CarrierBusy reports whether the medium appears busy to this radio: it is
// transmitting, locked onto a frame, or sensing energy above the
// carrier-sense threshold.
func (r *Radio) CarrierBusy() bool {
	return r.state != Idle || r.rx != nil || r.busyUntil > r.sched.Now()
}

// Transmit puts a frame on the air for the given duration. The caller (the
// MAC) is responsible for medium access; the radio enforces only physical
// constraints: transmitting while already transmitting or for a
// non-positive duration is a programming error — the frame is refused,
// counted in Stats.TxRefused, and a wrapped ErrTxWhileTx/ErrTxDuration is
// returned. Transmitting while receiving destroys the reception
// (half-duplex).
func (r *Radio) Transmit(p *packet.Packet, duration sim.Time) error {
	if r.state == Transmitting {
		r.stats.TxRefused++
		return fmt.Errorf("%w (radio %v)", ErrTxWhileTx, r.id)
	}
	if duration <= 0 {
		r.stats.TxRefused++
		return fmt.Errorf("%w (radio %v: %v)", ErrTxDuration, r.id, duration)
	}
	if r.down {
		// Outage: the MAC's transmit state machine proceeds normally, but
		// no energy leaves the antenna — the frame is silently lost on air,
		// and counted here rather than vanishing.
		r.stats.TxSuppressedOutage++
		r.spans.RecordDur(span.OpTx, span.CauseOutage, r.id, p, duration)
		r.state = Transmitting
		r.sched.ScheduleKind(sim.KindPHY, duration, r.txDoneFn)
		return nil
	}
	if r.rx != nil {
		// Half-duplex: the in-progress reception is lost. The reception's
		// end-of-frame event releases it when it finds r.rx changed.
		r.stats.RxAbortedByTx++
		r.spans.Record(span.OpRxLost, span.CauseAbortedByTx, r.id, r.rx.p)
		r.rx = nil
	}
	r.state = Transmitting
	r.stats.TxFrames++
	r.spans.RecordDur(span.OpTx, span.CauseNone, r.id, p, duration)
	r.extendBusy(r.sched.Now() + duration)
	r.ch.broadcast(r, p, duration)
	r.sched.ScheduleKind(sim.KindPHY, duration, r.txDoneFn)
	return nil
}

// frameArrives is called by the channel when the first bit of a frame
// reaches this radio (power already above CSThreshW). owned reports
// whether p is this arrival's private clone; otherwise p is the
// transmitter's packet, borrowed for the duration of this event only —
// loss paths may read it (span metadata), but locking onto the frame must
// clone it first.
func (r *Radio) frameArrives(p *packet.Packet, power float64, duration sim.Time, owned bool) {
	r.stats.RxArrivals++
	if r.down {
		// A dead radio hears nothing: no carrier sense, no interference
		// bookkeeping — but the loss is counted, never silent.
		r.stats.RxDroppedOutage++
		r.spans.Record(span.OpRxLost, span.CauseOutage, r.id, p)
		return
	}
	now := r.sched.Now()
	end := now + duration
	wasBusy := r.CarrierBusy()
	r.extendBusy(end)
	if !wasBusy && r.mac != nil {
		r.mac.ChannelBusy()
	}

	if r.Params.SINRMode {
		r.arriveSINR(p, power, duration, end, owned)
		return
	}

	switch {
	case r.state == Transmitting:
		// Blinded by our own transmission.
		r.stats.RxWhileTx++
		r.spans.Record(span.OpRxLost, span.CauseWhileTx, r.id, p)
	case power < r.Params.RxThreshW:
		// Sensed but undecodable: pure noise. If we were locked onto a
		// frame, noise this weak does not corrupt it only when capture
		// holds.
		r.stats.RxBelowThresh++
		r.spans.Record(span.OpRxLost, span.CauseBelowThresh, r.id, p)
		if r.rx != nil && r.rx.power < power*r.Params.CaptureRatio {
			r.rx.corrupted = true
		}
	case r.rx == nil:
		// Lock onto the frame; deliver when the last bit arrives. A
		// borrowed packet is cloned here — the one moment the radio keeps a
		// reference past the arrival event.
		if !owned {
			p = r.ch.pf.Clone(p)
		}
		rec := r.newReception(p, power, end)
		r.rx = rec
		r.state = Receiving
		r.sched.ScheduleArgKind(sim.KindPHY, duration, r.finishRecFn, rec)
	default:
		// Overlap with the frame we are locked onto.
		if r.rx.power >= power*r.Params.CaptureRatio {
			// Capture: the locked frame is strong enough to survive.
			r.stats.RxCaptured++
			r.spans.Record(span.OpRxLost, span.CauseCaptured, r.id, p)
		} else {
			// Collision: the locked frame is corrupted, and the new frame
			// cannot be acquired mid-overlap either.
			r.stats.RxOverlapLost++
			r.spans.Record(span.OpRxLost, span.CauseOverlap, r.id, p)
			r.rx.corrupted = true
		}
	}
}

// arriveSINR handles an arrival under the aggregate-interference model:
// decodable frames lock an idle receiver; everything else accumulates
// into the interference level, and the verdict falls at reception end.
func (r *Radio) arriveSINR(p *packet.Packet, power float64, duration sim.Time, end sim.Time, owned bool) {
	if r.state != Transmitting && r.rx == nil && power >= r.Params.RxThreshW {
		if !owned {
			p = r.ch.pf.Clone(p)
		}
		rec := r.newReception(p, power, end)
		rec.maxInterfW = r.interfW
		r.rx = rec
		r.state = Receiving
		r.sched.ScheduleArgKind(sim.KindPHY, duration, r.finishRecFn, rec)
		return
	}
	switch {
	case r.state == Transmitting:
		r.stats.RxWhileTx++
		r.spans.Record(span.OpRxLost, span.CauseWhileTx, r.id, p)
	case power < r.Params.RxThreshW:
		r.stats.RxBelowThresh++
		r.spans.Record(span.OpRxLost, span.CauseBelowThresh, r.id, p)
	default:
		// Decodable power, but the receiver is locked onto another frame:
		// the arrival folds into interference and is lost.
		r.stats.RxOverlapLost++
		r.spans.Record(span.OpRxLost, span.CauseOverlap, r.id, p)
	}
	r.addInterference(power, duration)
}

// addInterference raises the aggregate interference level for the
// arrival's duration.
func (r *Radio) addInterference(power float64, duration sim.Time) {
	r.interfW += power
	if r.rx != nil && r.interfW > r.rx.maxInterfW {
		r.rx.maxInterfW = r.interfW
	}
	var e *interfEntry
	if n := len(r.interfFree); n > 0 {
		e = r.interfFree[n-1]
		r.interfFree = r.interfFree[:n-1]
	} else {
		e = &interfEntry{}
	}
	e.power = power
	r.sched.ScheduleArgKind(sim.KindPHY, duration, r.interfEndFn, e)
}

// finishReception delivers the locked frame when its last bit arrives.
func (r *Radio) finishReception(rec *reception) {
	if r.rx != rec {
		// Reception was aborted (e.g. we transmitted over it); this event
		// held the last reference to the struct and to its private clone,
		// so both can be recycled now.
		r.ch.pf.Release(rec.p)
		r.releaseReception(rec)
		return
	}
	r.rx = nil
	if r.state == Receiving {
		r.state = Idle
	}
	if r.Params.SINRMode && rec.power < r.Params.CaptureRatio*(r.Params.NoiseFloorW+rec.maxInterfW) {
		rec.corrupted = true
	}
	p, corrupted := rec.p, rec.corrupted
	impaired := !corrupted && r.imp != nil && r.imp.DropRx(r.id, p)
	switch {
	case impaired:
		r.stats.RxImpaired++
		r.spans.Record(span.OpRxLost, span.CauseImpaired, r.id, p)
	case corrupted:
		r.stats.RxCollided++
		r.spans.Record(span.OpRxLost, span.CauseCollision, r.id, p)
	default:
		r.stats.RxOK++
		r.spans.Record(span.OpRxOK, span.CauseNone, r.id, p)
	}
	r.releaseReception(rec)
	if r.mac != nil {
		r.mac.RecvFromPhy(p, corrupted || impaired)
	}
	r.maybeIdle()
}

// extendBusy pushes the carrier-busy horizon out to at least t and
// arranges an idle notification when it expires.
func (r *Radio) extendBusy(t sim.Time) {
	if t <= r.busyUntil {
		return
	}
	r.busyUntil = t
	r.idleTimer.Cancel()
	r.idleTimer = r.sched.AtKind(sim.KindPHY, t, r.idleFn)
}

// maybeIdle notifies the MAC if the medium has gone fully quiet.
func (r *Radio) maybeIdle() {
	if !r.CarrierBusy() && r.mac != nil {
		r.mac.ChannelIdle()
	}
}
