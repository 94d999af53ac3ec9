// Package mac80211 implements the IEEE 802.11 Distributed Coordination
// Function (DCF) used by the paper's trial 3: CSMA/CA with physical and
// virtual carrier sense (NAV), DIFS/SIFS interframe spaces, binary
// exponential backoff, positive acknowledgement of unicast frames, and a
// retry limit whose exhaustion is reported upward as a link failure (which
// AODV uses for route-error detection, as in ns-2).
//
// Compared with TDMA, DCF grants the channel on demand: a braking vehicle's
// first status packet goes out after at most DIFS + backoff rather than
// waiting for an assigned slot. That asymmetry is the whole of the paper's
// trial-1-versus-trial-3 result.
package mac80211

import (
	"fmt"

	"vanetsim/internal/mac"
	"vanetsim/internal/obs"
	"vanetsim/internal/packet"
	"vanetsim/internal/phy"
	"vanetsim/internal/queue"
	"vanetsim/internal/sim"
	"vanetsim/internal/span"
)

// Config holds DCF parameters. DefaultConfig models an 802.11b radio at
// 11 Mb/s with long PLCP preambles and 1 Mb/s control frames.
type Config struct {
	SlotTime sim.Time
	SIFS     sim.Time
	DIFS     sim.Time
	// CWMin and CWMax bound the contention window (in slots; the backoff
	// count is drawn uniformly from [0, CW]).
	CWMin, CWMax int
	// DataRateBps clocks data frames; BasicRateBps clocks ACKs.
	DataRateBps, BasicRateBps float64
	// PLCPTime is the physical preamble+header prepended to every frame.
	PLCPTime sim.Time
	// DataHdrBytes and AckBytes are MAC frame overheads.
	DataHdrBytes, AckBytes int
	// RetryLimit is the maximum number of transmissions of one frame
	// before it is dropped and reported as a link failure.
	RetryLimit int
	// MaxPropDelay pads the ACK timeout for the farthest receiver.
	MaxPropDelay sim.Time
	// RTSThresholdBytes enables RTS/CTS for unicast data frames of at
	// least this size; 0 disables the exchange (the default, as in the
	// paper's ns-2 runs). RTS/CTS reserves the medium around a *hidden*
	// sender via the NAV, at the cost of two extra control frames.
	RTSThresholdBytes int
	// RTSBytes and CTSBytes are the control frame sizes.
	RTSBytes, CTSBytes int
}

// DefaultConfig returns 802.11b (11 Mb/s) DCF parameters.
func DefaultConfig() Config {
	return Config{
		SlotTime:     20 * sim.Microsecond,
		SIFS:         10 * sim.Microsecond,
		DIFS:         50 * sim.Microsecond,
		CWMin:        31,
		CWMax:        1023,
		DataRateBps:  11e6,
		BasicRateBps: 1e6,
		PLCPTime:     192 * sim.Microsecond,
		DataHdrBytes: 28,
		AckBytes:     14,
		RetryLimit:   7,
		MaxPropDelay: 2 * sim.Microsecond,
		RTSBytes:     20,
		CTSBytes:     14,
	}
}

// RTSTxTime returns the on-air time of an RTS frame.
func (c Config) RTSTxTime() sim.Time {
	return c.PLCPTime + mac.Duration(c.RTSBytes, c.BasicRateBps)
}

// CTSTxTime returns the on-air time of a CTS frame.
func (c Config) CTSTxTime() sim.Time {
	return c.PLCPTime + mac.Duration(c.CTSBytes, c.BasicRateBps)
}

// CTSTimeout returns how long an RTS sender waits for the CTS.
func (c Config) CTSTimeout() sim.Time {
	return c.SIFS + c.CTSTxTime() + 2*c.MaxPropDelay + c.SlotTime
}

// DataTxTime returns the on-air time of a data frame carrying size bytes.
func (c Config) DataTxTime(size int) sim.Time {
	return c.PLCPTime + mac.Duration(c.DataHdrBytes+size, c.DataRateBps)
}

// AckTxTime returns the on-air time of an ACK frame.
func (c Config) AckTxTime() sim.Time {
	return c.PLCPTime + mac.Duration(c.AckBytes, c.BasicRateBps)
}

// AckTimeout returns how long a sender waits for an ACK before retrying.
func (c Config) AckTimeout() sim.Time {
	return c.SIFS + c.AckTxTime() + 2*c.MaxPropDelay + c.SlotTime
}

// accessPhase tracks where the MAC is in its channel-access procedure.
type accessPhase uint8

const (
	phaseNone accessPhase = iota
	phaseDIFS
	phaseBackoff
)

// Stats counts MAC-level outcomes.
type Stats struct {
	TxData      int // data transmissions, including retries
	TxAck       int // acknowledgements sent
	TxRTS       int // RTS frames sent
	TxCTS       int // CTS responses sent
	TxErrors    int // frames the radio refused (Transmit returned an error)
	Retries     int // retransmission attempts
	Drops       int // frames dropped after RetryLimit
	RxDelivered int // frames handed to the network layer
	RxDup       int // duplicate data frames suppressed
	RxCorrupted int // collision-damaged frames discarded
}

// MAC is one node's DCF instance.
type MAC struct {
	id    packet.NodeID
	sched *sim.Scheduler
	radio *phy.Radio
	ifq   queue.Queue
	up    mac.Upcall
	cfg   Config
	rng   *sim.RNG
	pf    *packet.Factory

	current      *packet.Packet
	retries      int
	cw           int
	backoffSlots int
	phase        accessPhase
	backoffStart sim.Time
	accessTimer  sim.Timer

	waitingAck bool
	ackTimer   sim.Timer
	waitingCTS bool
	ctsTimer   sim.Timer

	navUntil sim.Time
	navTimer sim.Timer

	// Hot-path callbacks, bound once at construction: the access and NAV
	// timers are re-armed on nearly every medium transition, and every
	// frame schedules its end of transmission and its ACK/CTS timeout; a
	// fresh method value (or closure) per arming is real allocation
	// traffic at dense fleet sizes.
	difsEndFn        func()
	backoffEndFn     func()
	navExpireFn      func()
	txEndFn          func() // end of an ACK or CTS we sent
	broadcastTxEndFn func()
	unicastTxEndFn   func()
	rtsTxEndFn       func()
	ackTimeoutFn     func()
	ctsTimeoutFn     func()
	sendAfterCTSFn   func()
	sendAckFn        func(any) // a *response: the ACK one SIFS after data
	sendCTSFn        func(any) // a *response: the CTS one SIFS after an RTS

	txBusy     bool // our radio is clocking out a frame
	pendingAck sim.Timer
	// ctlFrame is the ACK, CTS or RTS on the air (nil otherwise); the MAC
	// minted it, so it releases it at its own end of transmission.
	ctlFrame *packet.Packet
	respFree []*response

	dedup map[uint64]bool
	// dedupRing holds the last dedupWindow data UIDs received, oldest
	// first from dedupN % dedupWindow; allocated on the first unicast.
	dedupRing []uint64
	dedupN    int

	stats Stats

	// Telemetry (nil-safe; see internal/obs). serviceStart stamps when the
	// frame in service left the queue.
	obsBackoffWait *obs.Histogram
	obsRetries     *obs.Histogram
	obsServiceTime *obs.Histogram
	serviceStart   sim.Time

	// spans records retry scheduling for the causal tracer (nil when
	// tracing is disarmed).
	spans *span.Recorder
}

var _ mac.MAC = (*MAC)(nil)
var _ phy.MAC = (*MAC)(nil)

// response carries a pending SIFS response (ACK or CTS) to its callback.
// Responses are pooled per MAC; each needs its own record because ACKs can
// overlap.
type response struct {
	to       packet.NodeID
	navGrant sim.Time // CTS only
}

// dedupWindow bounds duplicate detection to the most recent data UIDs.
const dedupWindow = 128

// New creates a DCF MAC for node id and wires it to the radio. The packet
// factory mints ACK frames; rng drives backoff draws.
func New(id packet.NodeID, sched *sim.Scheduler, radio *phy.Radio, ifq queue.Queue, up mac.Upcall, pf *packet.Factory, rng *sim.RNG, cfg Config) *MAC {
	m := &MAC{
		id:    id,
		sched: sched,
		radio: radio,
		ifq:   ifq,
		up:    up,
		cfg:   cfg,
		rng:   rng,
		pf:    pf,
		cw:    cfg.CWMin,
		dedup: make(map[uint64]bool),
	}
	m.difsEndFn = m.onDifsEnd
	m.backoffEndFn = m.onBackoffEnd
	m.navExpireFn = func() {
		m.navTimer = sim.Timer{}
		m.startAccess()
	}
	m.txEndFn = func() {
		m.txBusy = false
		m.releaseCtl()
	}
	m.broadcastTxEndFn = m.onBroadcastTxEnd
	m.unicastTxEndFn = m.onUnicastTxEnd
	m.rtsTxEndFn = m.onRTSTxEnd
	m.ackTimeoutFn = m.onAckTimeout
	m.ctsTimeoutFn = m.onCtsTimeout
	m.sendAfterCTSFn = m.onSendAfterCTS
	m.sendAckFn = m.onSendAck
	m.sendCTSFn = m.onSendCTS
	radio.SetMAC(m)
	return m
}

// ID implements mac.MAC.
func (m *MAC) ID() packet.NodeID { return m.id }

// Stats returns the MAC counters.
func (m *MAC) Stats() Stats { return m.stats }

// SetObs wires telemetry instruments (each may be nil): completed backoff
// stint durations, per-frame retry counts, and per-frame service time
// (dequeue to success/drop).
func (m *MAC) SetObs(backoffWait, retries, serviceTime *obs.Histogram) {
	m.obsBackoffWait = backoffWait
	m.obsRetries = retries
	m.obsServiceTime = serviceTime
}

// SetSpans wires the causal span recorder (may be nil).
func (m *MAC) SetSpans(rec *span.Recorder) { m.spans = rec }

// Poke implements mac.MAC: takes the next frame from the interface queue
// if none is in service and begins channel access.
func (m *MAC) Poke() {
	if m.current != nil {
		return
	}
	p := m.ifq.Dequeue()
	if p == nil {
		return
	}
	m.current = p
	m.retries = 0
	m.serviceStart = m.sched.Now()
	m.startAccess()
}

// mediumFree reports whether both physical and virtual carrier sense see
// the channel idle and our own transmitter is quiet.
func (m *MAC) mediumFree() bool {
	return !m.radio.CarrierBusy() && m.sched.Now() >= m.navUntil && !m.txBusy
}

// startAccess begins (or defers) the DIFS + backoff procedure for the
// frame in service.
func (m *MAC) startAccess() {
	if m.current == nil || m.phase != phaseNone || m.waitingAck || m.waitingCTS {
		return
	}
	if !m.mediumFree() {
		// A ChannelIdle (or NAV expiry) callback will retry.
		m.armNavTimer()
		return
	}
	m.phase = phaseDIFS
	m.accessTimer = m.sched.ScheduleKind(sim.KindMAC, m.cfg.DIFS, m.difsEndFn)
}

func (m *MAC) onDifsEnd() {
	m.accessTimer = sim.Timer{}
	if !m.mediumFree() {
		m.phase = phaseNone
		m.armNavTimer()
		return
	}
	if m.backoffSlots > 0 {
		m.phase = phaseBackoff
		m.backoffStart = m.sched.Now()
		d := sim.Time(float64(m.backoffSlots)) * m.cfg.SlotTime
		m.accessTimer = m.sched.ScheduleKind(sim.KindMAC, d, m.backoffEndFn)
		return
	}
	m.transmitData()
}

func (m *MAC) onBackoffEnd() {
	m.accessTimer = sim.Timer{}
	m.backoffSlots = 0
	m.obsBackoffWait.ObserveDuration(m.sched.Now() - m.backoffStart)
	if !m.mediumFree() {
		m.phase = phaseNone
		m.armNavTimer()
		return
	}
	m.transmitData()
}

// transmitData puts the frame in service on the air.
func (m *MAC) transmitData() {
	m.phase = phaseNone
	p := m.current
	if p == nil {
		return
	}
	if !m.mediumFree() {
		m.armNavTimer()
		return
	}
	p.Mac.Src = m.id
	p.Mac.Dst = p.IP.NextHop
	p.Mac.Subtype = packet.MacData
	p.Mac.Retries = m.retries
	broadcast := p.Mac.Dst == packet.Broadcast
	if !broadcast && m.cfg.RTSThresholdBytes > 0 && p.Size >= m.cfg.RTSThresholdBytes {
		m.transmitRTS(p)
		return
	}
	m.transmitDataFrame(p, broadcast)
}

// transmitDataFrame clocks out the data frame itself (directly, or as the
// third step of an RTS/CTS exchange).
func (m *MAC) transmitDataFrame(p *packet.Packet, broadcast bool) {
	dur := m.cfg.DataTxTime(p.Size)
	if broadcast {
		p.Mac.Duration = 0
	} else {
		p.Mac.Duration = m.cfg.SIFS + m.cfg.AckTxTime()
	}
	m.stats.TxData++
	m.txBusy = true
	// Schedule our end-of-transmission bookkeeping *before* the radio's
	// own tx-end event so that the ChannelIdle callback the radio emits at
	// the same instant sees txBusy already cleared.
	if broadcast {
		m.sched.ScheduleKind(sim.KindMAC, dur, m.broadcastTxEndFn)
	} else {
		m.sched.ScheduleKind(sim.KindMAC, dur, m.unicastTxEndFn)
	}
	if err := m.radio.Transmit(p, dur); err != nil {
		// The frame never hit the air; the bookkeeping above still runs, so
		// the exchange degrades through the normal ack-timeout path.
		m.stats.TxErrors++
	}
}

// onBroadcastTxEnd completes a broadcast data frame: there is no ACK.
func (m *MAC) onBroadcastTxEnd() {
	m.txBusy = false
	m.finishCurrent(true)
}

// onUnicastTxEnd starts waiting for the ACK of a unicast data frame.
func (m *MAC) onUnicastTxEnd() {
	m.txBusy = false
	m.waitingAck = true
	m.ackTimer = m.sched.ScheduleKind(sim.KindMAC, m.cfg.AckTimeout(), m.ackTimeoutFn)
}

// transmitRTS opens an RTS/CTS exchange for the frame in service. The RTS
// NAV reserves the medium for the whole CTS + DATA + ACK sequence.
func (m *MAC) transmitRTS(p *packet.Packet) {
	rts := m.pf.New(packet.TypeMACAck, m.cfg.RTSBytes, m.sched.Now())
	rts.Mac = packet.MacHdr{
		Src:     m.id,
		Dst:     p.Mac.Dst,
		Subtype: packet.MacRTS,
		Duration: 3*m.cfg.SIFS + m.cfg.CTSTxTime() +
			m.cfg.DataTxTime(p.Size) + m.cfg.AckTxTime(),
	}
	dur := m.cfg.RTSTxTime()
	m.stats.TxRTS++
	m.txBusy = true
	m.ctlFrame = rts
	m.sched.ScheduleKind(sim.KindMAC, dur, m.rtsTxEndFn)
	if err := m.radio.Transmit(rts, dur); err != nil {
		m.stats.TxErrors++ // degrade through the CTS timeout
	}
}

// onRTSTxEnd starts waiting for the CTS answering our RTS.
func (m *MAC) onRTSTxEnd() {
	m.txBusy = false
	m.releaseCtl()
	m.waitingCTS = true
	m.ctsTimer = m.sched.ScheduleKind(sim.KindMAC, m.cfg.CTSTimeout(), m.ctsTimeoutFn)
}

// onCtsTimeout handles a missing CTS like a missing ACK: back off and
// retry the whole exchange.
func (m *MAC) onCtsTimeout() {
	m.ctsTimer = sim.Timer{}
	m.waitingCTS = false
	m.retries++
	if m.retries > m.cfg.RetryLimit {
		m.stats.Drops++
		m.cw = m.cfg.CWMin
		m.finishCurrent(false)
		return
	}
	m.stats.Retries++
	m.spans.Record(span.OpRetry, span.CauseCtsTimeout, m.id, m.current)
	m.cw = min(2*m.cw+1, m.cfg.CWMax)
	m.backoffSlots = m.rng.Intn(m.cw + 1)
	m.startAccess()
}

func (m *MAC) onAckTimeout() {
	m.ackTimer = sim.Timer{}
	m.waitingAck = false
	m.retries++
	if m.retries > m.cfg.RetryLimit {
		m.stats.Drops++
		m.cw = m.cfg.CWMin
		m.finishCurrent(false)
		return
	}
	m.stats.Retries++
	m.spans.Record(span.OpRetry, span.CauseAckTimeout, m.id, m.current)
	m.cw = min(2*m.cw+1, m.cfg.CWMax)
	m.backoffSlots = m.rng.Intn(m.cw + 1)
	m.startAccess()
}

// finishCurrent completes service of the current frame (success or drop),
// draws the post-transmission backoff, reports upward, and pulls the next
// frame.
func (m *MAC) finishCurrent(ok bool) {
	p := m.current
	m.current = nil
	m.obsRetries.Observe(float64(m.retries))
	m.obsServiceTime.ObserveDuration(m.sched.Now() - m.serviceStart)
	m.retries = 0
	if ok {
		m.cw = m.cfg.CWMin
	}
	m.backoffSlots = m.rng.Intn(m.cw + 1)
	m.up.MacTxDone(p, ok)
	m.Poke()
	if m.current != nil {
		m.startAccess()
	}
}

// RecvFromPhy implements phy.MAC.
func (m *MAC) RecvFromPhy(p *packet.Packet, corrupted bool) {
	if corrupted {
		m.stats.RxCorrupted++
		m.radio.ReleaseFrame(p)
		return
	}
	// Virtual carrier sense: honour the NAV of frames addressed elsewhere.
	if p.Mac.Dst != m.id && p.Mac.Duration > 0 {
		end := m.sched.Now() + p.Mac.Duration
		if end > m.navUntil {
			m.navUntil = end
			m.armNavTimer()
		}
	}
	// Every arm below that does not hand p to the network layer recycles
	// it: under a dense fleet almost every decoded frame is overheard
	// traffic or MAC control, and releasing those is what keeps the
	// receive path allocation-free in steady state. The handlers consume
	// header fields before the release (scheduleCTS and scheduleAck copy
	// what their deferred callbacks need).
	switch p.Mac.Subtype {
	case packet.MacAck:
		if p.Mac.Dst == m.id && m.waitingAck {
			m.ackTimer.Cancel()
			m.ackTimer = sim.Timer{}
			m.waitingAck = false
			m.finishCurrent(true)
		}
		m.radio.ReleaseFrame(p)
	case packet.MacRTS:
		if p.Mac.Dst == m.id {
			m.scheduleCTS(p)
		}
		m.radio.ReleaseFrame(p)
	case packet.MacCTS:
		if p.Mac.Dst == m.id && m.waitingCTS {
			m.ctsTimer.Cancel()
			m.ctsTimer = sim.Timer{}
			m.waitingCTS = false
			m.sendDataAfterCTS()
		}
		m.radio.ReleaseFrame(p)
	case packet.MacData:
		switch p.Mac.Dst {
		case m.id:
			m.scheduleAck(p)
			if m.isDup(p.UID) {
				m.stats.RxDup++
				m.radio.ReleaseFrame(p)
				return
			}
			m.stats.RxDelivered++
			m.up.RecvFromMac(p)
		case packet.Broadcast:
			m.stats.RxDelivered++
			m.up.RecvFromMac(p)
		default:
			m.radio.ReleaseFrame(p) // overheard unicast: NAV already honoured
		}
	default:
		m.radio.ReleaseFrame(p)
	}
}

// scheduleAck sends an ACK one SIFS after the data frame ended. ACKs are
// sent regardless of medium state — SIFS priority is what makes them win
// the channel.
func (m *MAC) scheduleAck(data *packet.Packet) {
	m.pendingAck = m.sched.ScheduleArgKind(sim.KindMAC, m.cfg.SIFS, m.sendAckFn, m.newResponse(data.Mac.Src, 0))
}

// onSendAck sends the ACK scheduled by scheduleAck.
func (m *MAC) onSendAck(a any) {
	to := m.takeResponse(a).to
	m.pendingAck = sim.Timer{}
	if m.txBusy {
		return // pathological overlap; drop the ACK, sender retries
	}
	ack := m.pf.New(packet.TypeMACAck, m.cfg.AckBytes, m.sched.Now())
	ack.Mac = packet.MacHdr{Src: m.id, Dst: to, Subtype: packet.MacAck}
	m.stats.TxAck++
	m.transmitCtl(ack, m.cfg.AckTxTime())
}

// scheduleCTS answers an RTS after SIFS, granting the reservation.
func (m *MAC) scheduleCTS(rts *packet.Packet) {
	navGrant := rts.Mac.Duration - m.cfg.SIFS - m.cfg.CTSTxTime()
	if navGrant < 0 {
		navGrant = 0
	}
	m.sched.ScheduleArgKind(sim.KindMAC, m.cfg.SIFS, m.sendCTSFn, m.newResponse(rts.Mac.Src, navGrant))
}

// onSendCTS sends the CTS scheduled by scheduleCTS.
func (m *MAC) onSendCTS(a any) {
	r := m.takeResponse(a)
	if m.txBusy {
		return // pathological overlap; RTS sender times out and retries
	}
	cts := m.pf.New(packet.TypeMACAck, m.cfg.CTSBytes, m.sched.Now())
	cts.Mac = packet.MacHdr{Src: m.id, Dst: r.to, Subtype: packet.MacCTS, Duration: r.navGrant}
	m.stats.TxCTS++
	m.transmitCtl(cts, m.cfg.CTSTxTime())
}

// transmitCtl clocks out an ACK or CTS frame. As in transmitData, txBusy
// is cleared (and the frame released) before the radio's same-instant
// ChannelIdle, so a deferred access can resume.
func (m *MAC) transmitCtl(p *packet.Packet, dur sim.Time) {
	m.txBusy = true
	m.ctlFrame = p
	m.sched.ScheduleKind(sim.KindMAC, dur, m.txEndFn)
	if err := m.radio.Transmit(p, dur); err != nil {
		m.stats.TxErrors++ // lost ACK/CTS; the peer times out and retries
	}
}

// releaseCtl releases the control frame whose transmission just ended.
// Receivers only borrowed it until first-bit arrival, strictly before now
// (a receiver whose first bit would land later got an eager clone).
func (m *MAC) releaseCtl() {
	if m.ctlFrame != nil {
		m.pf.Release(m.ctlFrame)
		m.ctlFrame = nil
	}
}

// newResponse returns a pooled response record.
func (m *MAC) newResponse(to packet.NodeID, navGrant sim.Time) *response {
	var r *response
	if n := len(m.respFree); n > 0 {
		r = m.respFree[n-1]
		m.respFree = m.respFree[:n-1]
	} else {
		r = new(response)
	}
	*r = response{to: to, navGrant: navGrant}
	return r
}

// takeResponse returns the record a response callback was scheduled with
// to the pool and hands back its contents.
func (m *MAC) takeResponse(a any) response {
	r := a.(*response)
	m.respFree = append(m.respFree, r)
	return *r
}

// sendDataAfterCTS transmits the reserved data frame one SIFS after the
// CTS arrived.
func (m *MAC) sendDataAfterCTS() {
	m.sched.ScheduleKind(sim.KindMAC, m.cfg.SIFS, m.sendAfterCTSFn)
}

// onSendAfterCTS sends the reserved frame, unless it is gone or our radio
// is busy.
func (m *MAC) onSendAfterCTS() {
	p := m.current
	if p == nil || m.txBusy {
		return
	}
	m.transmitDataFrame(p, false)
}

// isDup records and tests receipt of a data frame UID, bounding memory
// with FIFO eviction over a fixed ring.
func (m *MAC) isDup(uid uint64) bool {
	if m.dedup[uid] {
		return true
	}
	m.dedup[uid] = true
	if m.dedupRing == nil {
		m.dedupRing = make([]uint64, dedupWindow)
	}
	slot := m.dedupN % dedupWindow
	if m.dedupN >= dedupWindow {
		delete(m.dedup, m.dedupRing[slot])
	}
	m.dedupRing[slot] = uid
	m.dedupN++
	return false
}

// ChannelBusy implements phy.MAC: pause any access procedure.
func (m *MAC) ChannelBusy() {
	switch m.phase {
	case phaseDIFS:
		// DIFS must restart from scratch after the medium clears.
		m.accessTimer.Cancel()
		m.accessTimer = sim.Timer{}
		m.phase = phaseNone
	case phaseBackoff:
		// Freeze the countdown at whole slots already consumed.
		elapsed := m.sched.Now() - m.backoffStart
		consumed := int(float64(elapsed / m.cfg.SlotTime))
		m.backoffSlots -= consumed
		if m.backoffSlots < 0 {
			m.backoffSlots = 0
		}
		m.accessTimer.Cancel()
		m.accessTimer = sim.Timer{}
		m.phase = phaseNone
	}
}

// ChannelIdle implements phy.MAC: resume access if a frame is waiting.
// Idempotent, as the radio may report idle more than once.
func (m *MAC) ChannelIdle() { m.startAccess() }

// armNavTimer schedules a wakeup at NAV expiry so a deferred access
// resumes even without a physical idle transition.
func (m *MAC) armNavTimer() {
	if m.navUntil <= m.sched.Now() {
		return
	}
	if m.navTimer.Active() && m.navTimer.When() >= m.navUntil {
		return
	}
	m.navTimer.Cancel()
	until := m.navUntil
	m.navTimer = m.sched.AtKind(sim.KindMAC, until, m.navExpireFn)
}

// String identifies the MAC in logs.
func (m *MAC) String() string { return fmt.Sprintf("dcf(%v)", m.id) }
