// Package mactdma implements the Time Division Multiple Access MAC used by
// the paper's trials 1 and 2, after ns-2's Mac/Tdma: simulated time is
// divided into frames of fixed per-node slots, every node owns exactly one
// slot per frame, and a node transmits at most one packet — unicast or
// broadcast, data or routing — at the start of its own slot.
//
// Two consequences drive the paper's TDMA results:
//
//   - The slot is sized for the largest possible packet, so the *service
//     rate in packets per second is independent of packet size*: halving
//     the packet size halves throughput (trial 1 vs 2) but leaves one-way
//     delay unchanged.
//   - A node with a backlog can still send only one packet per frame, so
//     the interface queue fills and the one-way delay climbs to
//     (queue length × frame duration) — the multi-second steady state of
//     Figs. 5–9.
//
// Slot ownership guarantees collision-freedom, so TDMA needs no
// acknowledgements or retries; the price is the slot-waiting latency the
// paper's analysis calls "unnecessary overhead" for emergency braking.
package mactdma

import (
	"fmt"
	"math"

	"vanetsim/internal/check"
	"vanetsim/internal/mac"
	"vanetsim/internal/obs"
	"vanetsim/internal/packet"
	"vanetsim/internal/phy"
	"vanetsim/internal/queue"
	"vanetsim/internal/sim"
	"vanetsim/internal/span"
)

// Config holds TDMA parameters. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// DataRateBps is the radio bit rate (ns-2 WaveLAN default: 2 Mb/s).
	DataRateBps float64
	// MaxPacketBytes sizes the slot: every slot can carry one maximal
	// packet, so shorter packets waste slot tail.
	MaxPacketBytes int
	// HdrBytes is the MAC framing overhead per packet.
	HdrBytes int
	// PreambleTime is per-slot PHY synchronisation overhead.
	PreambleTime sim.Time
	// GuardTime separates slots to absorb propagation skew.
	GuardTime sim.Time
}

// DefaultConfig returns the parameters used for the paper's trials.
func DefaultConfig() Config {
	return Config{
		DataRateBps:    2e6,
		MaxPacketBytes: 1500,
		HdrBytes:       28,
		PreambleTime:   52 * sim.Microsecond,
		GuardTime:      10 * sim.Microsecond,
	}
}

// SlotDuration returns the fixed length of one slot: preamble + maximal
// frame serialisation + guard.
func (c Config) SlotDuration() sim.Time {
	return c.PreambleTime + mac.Duration(c.HdrBytes+c.MaxPacketBytes, c.DataRateBps) + c.GuardTime
}

// Hopping configures FHSS-style frequency hopping layered over the slot
// schedule: every slot, the whole network retunes to a pseudo-random
// channel derived from a shared seed. The paper's §III.E cites TDMA+FHSS
// as the denial-of-service-resistant alternative to 802.11; a jammer
// parked on one channel then hits only ~1/Channels of the slots.
type Hopping struct {
	// Channels is the hop-set size; 0 or 1 disables hopping.
	Channels int
	// Seed is the shared hop-sequence secret.
	Seed uint64
}

// Enabled reports whether hopping is active.
func (h Hopping) Enabled() bool { return h.Channels > 1 }

// Schedule is the global slot assignment shared by all nodes on a channel.
// Slots are assigned in registration order; the frame length is the number
// of registered nodes times the slot duration.
type Schedule struct {
	slotDur sim.Time
	order   []packet.NodeID
	index   map[packet.NodeID]int
	hopping Hopping
}

// NewSchedule creates an empty schedule with the given slot duration.
func NewSchedule(slotDur sim.Time) *Schedule {
	if slotDur <= 0 {
		panic("mactdma: non-positive slot duration")
	}
	return &Schedule{slotDur: slotDur, index: make(map[packet.NodeID]int)}
}

// SetHopping enables FHSS hopping on the schedule. All MACs sharing the
// schedule follow the same sequence, so intra-network traffic is
// unaffected by the retuning.
func (s *Schedule) SetHopping(h Hopping) { s.hopping = h }

// Hopping returns the hopping configuration.
func (s *Schedule) Hopping() Hopping { return s.hopping }

// ChannelAt returns the frequency channel the network occupies at time t
// (constant 0 when hopping is disabled).
func (s *Schedule) ChannelAt(t sim.Time) int {
	if !s.hopping.Enabled() {
		return 0
	}
	slot := uint64(t / s.slotDur)
	// splitmix64-style mix of (seed, absolute slot number).
	z := s.hopping.Seed + 0x9e3779b97f4a7c15*(slot+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(s.hopping.Channels))
}

// Add assigns the next free slot to id and returns its slot index. Adding
// the same node twice panics: slots are static for a scenario's lifetime.
func (s *Schedule) Add(id packet.NodeID) int {
	if _, dup := s.index[id]; dup {
		panic(fmt.Sprintf("mactdma: node %v already scheduled", id))
	}
	i := len(s.order)
	s.order = append(s.order, id)
	s.index[id] = i
	return i
}

// Slots returns the number of slots per frame.
func (s *Schedule) Slots() int { return len(s.order) }

// SlotDuration returns the slot length.
func (s *Schedule) SlotDuration() sim.Time { return s.slotDur }

// FrameDuration returns the TDMA frame length (slots × slot duration).
func (s *Schedule) FrameDuration() sim.Time {
	return sim.Time(float64(len(s.order))) * s.slotDur
}

// NextSlotStart returns the earliest time >= now at which id's slot
// begins. It panics if id was never added.
func (s *Schedule) NextSlotStart(id packet.NodeID, now sim.Time) sim.Time {
	i, ok := s.index[id]
	if !ok {
		panic(fmt.Sprintf("mactdma: node %v not in schedule", id))
	}
	frame := s.FrameDuration()
	offset := sim.Time(float64(i)) * s.slotDur
	if frame == 0 {
		return now
	}
	n := math.Ceil(float64((now - offset) / frame))
	if n < 0 {
		n = 0
	}
	start := offset + sim.Time(n)*frame
	for start < now {
		start += frame
	}
	return start
}

// Stats counts MAC-level outcomes.
type Stats struct {
	TxData      int // frames transmitted
	TxErrors    int // frames the radio refused (Transmit returned an error)
	RxDelivered int // frames delivered to the network layer
	RxCorrupted int // frames discarded due to collision (foreign traffic)
	RxFiltered  int // frames overheard but addressed elsewhere
	IdleSlots   int // own slots that began with an empty queue
}

// MAC is one node's TDMA MAC instance.
type MAC struct {
	id       packet.NodeID
	sched    *sim.Scheduler
	radio    *phy.Radio
	ifq      queue.Queue
	up       mac.Upcall
	schedule *Schedule
	cfg      Config

	slotTimer sim.Timer
	stats     Stats

	// End-of-transmission callbacks, bound once and fed the frame through
	// the scheduler instead of a capturing closure per frame.
	slotFn   func()
	txOKFn   func(any)
	txFailFn func(any)

	// Telemetry (nil-safe; see internal/obs). waitFrom stamps when the
	// head-of-line frame began waiting for our slot.
	obsSlotWait *obs.Histogram
	waitFrom    sim.Time

	// chk asserts slot exclusivity at transmit time (nil when the invariant
	// checker is disabled; one nil check per transmission).
	chk *check.SlotGuard

	// spans records the head-of-line wait seam for the causal tracer (nil
	// when tracing is disarmed; one nil check per Poke).
	spans *span.Recorder
}

var _ mac.MAC = (*MAC)(nil)
var _ phy.MAC = (*MAC)(nil)

// New creates a TDMA MAC for node id, registers it in schedule, and wires
// it to the radio.
func New(id packet.NodeID, sched *sim.Scheduler, radio *phy.Radio, ifq queue.Queue, up mac.Upcall, schedule *Schedule, cfg Config) *MAC {
	m := &MAC{
		id:       id,
		sched:    sched,
		radio:    radio,
		ifq:      ifq,
		up:       up,
		schedule: schedule,
		cfg:      cfg,
	}
	m.slotFn = m.onSlot
	m.txOKFn = func(p any) { m.txDone(p.(*packet.Packet), true) }
	m.txFailFn = func(p any) { m.txDone(p.(*packet.Packet), false) }
	schedule.Add(id)
	radio.SetMAC(m)
	if schedule.Hopping().Enabled() {
		radio.SetFreqFn(func() int { return schedule.ChannelAt(sched.Now()) })
	}
	return m
}

// ID implements mac.MAC.
func (m *MAC) ID() packet.NodeID { return m.id }

// Stats returns the MAC counters.
func (m *MAC) Stats() Stats { return m.stats }

// SetObs wires the slot-wait telemetry histogram (may be nil): time from a
// head-of-line frame's wakeup being armed to its slot actually starting —
// the "waiting for the assigned slot" component of TDMA's delay.
func (m *MAC) SetObs(slotWait *obs.Histogram) { m.obsSlotWait = slotWait }

// SetCheck wires the shared slot-exclusivity guard (may be nil).
func (m *MAC) SetCheck(g *check.SlotGuard) { m.chk = g }

// SetSpans wires the causal span recorder (may be nil).
func (m *MAC) SetSpans(rec *span.Recorder) { m.spans = rec }

// Poke implements mac.MAC: arms the next own-slot wakeup if the queue has
// work and no wakeup is pending.
func (m *MAC) Poke() {
	if m.slotTimer.Active() {
		return
	}
	p := m.ifq.Peek()
	if p == nil {
		return
	}
	// The slot wait starts here: the analyzer attributes Poke-to-transmit
	// time to contention rather than queueing.
	m.spans.Record(span.OpMacWait, span.CauseNone, m.id, p)
	m.waitFrom = m.sched.Now()
	start := m.schedule.NextSlotStart(m.id, m.sched.Now())
	m.slotTimer = m.sched.AtKind(sim.KindMAC, start, m.slotFn)
}

// onSlot fires at the start of this node's slot.
func (m *MAC) onSlot() {
	m.slotTimer = sim.Timer{}
	p := m.ifq.Dequeue()
	if p == nil {
		m.stats.IdleSlots++
		return
	}
	m.obsSlotWait.ObserveDuration(m.sched.Now() - m.waitFrom)
	p.Mac.Src = m.id
	p.Mac.Dst = p.IP.NextHop
	p.Mac.Subtype = packet.MacData
	dur := m.cfg.PreambleTime + mac.Duration(m.cfg.HdrBytes+p.Size, m.cfg.DataRateBps)
	m.chk.Transmitting(m.sched.Now(), m.id, p.UID)
	if err := m.radio.Transmit(p, dur); err != nil {
		// The radio refused the frame (a MAC/radio state bug): the frame is
		// lost, counted, and reported upward as a failed transmission so the
		// stack keeps flowing instead of crashing the run.
		m.stats.TxErrors++
		m.sched.ScheduleArgKind(sim.KindMAC, dur, m.txFailFn, p)
		return
	}
	m.stats.TxData++
	// TDMA has no acknowledgements: the transmission is reported
	// successful when it leaves the antenna, as in ns-2's Mac/Tdma.
	m.sched.ScheduleArgKind(sim.KindMAC, dur, m.txOKFn, p)
}

// txDone reports a frame's fate upward at its end of transmission (with
// ok the network layer releases it: receivers borrowed it only until
// first-bit arrival) and arms the next slot.
func (m *MAC) txDone(p *packet.Packet, ok bool) {
	m.up.MacTxDone(p, ok)
	m.Poke()
}

// RecvFromPhy implements phy.MAC.
func (m *MAC) RecvFromPhy(p *packet.Packet, corrupted bool) {
	if corrupted {
		m.stats.RxCorrupted++
		m.radio.ReleaseFrame(p)
		return
	}
	if p.Mac.Subtype != packet.MacData {
		// Jamming or foreign control energy: never delivered upward.
		m.stats.RxFiltered++
		m.radio.ReleaseFrame(p)
		return
	}
	if p.Mac.Dst != m.id && p.Mac.Dst != packet.Broadcast {
		m.stats.RxFiltered++
		m.radio.ReleaseFrame(p)
		return
	}
	m.stats.RxDelivered++
	m.up.RecvFromMac(p)
}

// ChannelBusy implements phy.MAC; TDMA does no carrier sensing.
func (m *MAC) ChannelBusy() {}

// ChannelIdle implements phy.MAC; TDMA does no carrier sensing.
func (m *MAC) ChannelIdle() {}
