// Package tcp implements ns-2-style one-way TCP: a Reno sender (Agent/TCP)
// that transmits fixed-size segments under a congestion window, and a sink
// (Agent/TCPSink) that returns cumulative acknowledgements. There is no
// connection handshake or teardown and sequence numbers count segments,
// exactly as in the simulator the paper used — the paper's "overhead
// associated with the TCP protocol" is this ACK-clocked window dynamics.
package tcp

import (
	"math"

	"vanetsim/internal/netlayer"
	"vanetsim/internal/obs"
	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
)

// Config holds TCP parameters. DefaultConfig mirrors ns-2 Agent/TCP
// defaults (window_=20, packetSize_=1000). Loss recovery is always Reno:
// after a fast retransmit the window deflates to ssthresh instead of
// restarting slow start.
type Config struct {
	// SegmentSize is the data payload per segment in bytes — the paper's
	// variable "packet size" parameter (1,000 in trials 1 and 3, 500 in
	// trial 2).
	SegmentSize int
	// HdrBytes is TCP+IP header overhead added to every segment.
	HdrBytes int
	// AckBytes is the size of an acknowledgement packet.
	AckBytes int
	// MaxCwnd caps the congestion window in segments (ns-2 window_).
	MaxCwnd float64
	// InitialSSThresh starts slow start's exit threshold, in segments.
	InitialSSThresh float64
	// DupThresh duplicate ACKs trigger fast retransmit.
	DupThresh int
	// MinRTO and MaxRTO clamp the retransmission timeout.
	MinRTO, MaxRTO sim.Time
}

// DefaultConfig returns ns-2-flavoured TCP Reno defaults.
func DefaultConfig() Config {
	return Config{
		SegmentSize:     1000,
		HdrBytes:        40,
		AckBytes:        40,
		MaxCwnd:         20,
		InitialSSThresh: 64,
		DupThresh:       3,
		MinRTO:          200 * sim.Millisecond,
		MaxRTO:          64 * sim.Second,
	}
}

// Stats counts sender-side events.
type Stats struct {
	SegmentsSent    int // first transmissions
	Retransmits     int
	Timeouts        int
	FastRetransmits int
	AcksReceived    int
	DupAcks         int
}

// Sender is a one-way TCP Reno source bound to a local port.
type Sender struct {
	sched *sim.Scheduler
	net   *netlayer.Net
	pf    *packet.Factory
	cfg   Config

	dst     packet.NodeID
	dstPort int
	srcPort int

	// Sequence state, in segments.
	nextSeq      int // next never-sent segment number
	highestAcked int // highest cumulatively acknowledged segment
	backlogBytes int // bytes requested by the application, not yet sent

	cwnd     float64
	ssthresh float64
	dupAcks  int
	inFR     bool // fast recovery in progress
	recover  int  // highest segment outstanding when loss was detected

	// RTT estimation (Jacobson/Karels); firstSent remembers first-
	// transmission times per segment for Karn-safe sampling and for
	// one-way-delay stamping of retransmissions.
	srtt, rttvar  sim.Time
	rttSeeded     bool
	rtoBackoff    int
	firstSent     map[int]sim.Time
	retransmitted map[int]bool
	rtxTimer      sim.Timer
	onTimeoutFn   func() // onTimeout, bound once for the rtx timer

	onSend    func(p *packet.Packet)
	payloadFn func(reuse packet.Payload) packet.Payload

	stats  Stats
	obsRTT *obs.Histogram // nil-safe RTT sample telemetry
}

// SetObs wires the RTT-sample telemetry histogram (may be nil). Every
// Karn-valid RTT sample is observed, in seconds.
func (s *Sender) SetObs(rtt *obs.Histogram) { s.obsRTT = rtt }

// OnSend registers an observer called for every transmitted segment,
// including retransmissions — the trace collector's "s ... AGT" hook. p is
// valid only for the call.
func (s *Sender) OnSend(fn func(p *packet.Packet)) { s.onSend = fn }

// SetPayloadFn attaches application content to every outgoing segment:
// fn is sampled at transmission time (the EBL application uses it to
// stamp live brake status onto each packet). reuse is the payload object
// the recycled packet carried before (nil if none); fn may overwrite and
// return it when it has the type fn needs, instead of allocating.
func (s *Sender) SetPayloadFn(fn func(reuse packet.Payload) packet.Payload) { s.payloadFn = fn }

// NewSender creates a TCP source on net bound to srcPort, addressing
// (dst, dstPort). It registers itself for ACK delivery.
func NewSender(sched *sim.Scheduler, n *netlayer.Net, pf *packet.Factory, srcPort int, dst packet.NodeID, dstPort int, cfg Config) *Sender {
	if cfg.SegmentSize <= 0 {
		panic("tcp: non-positive segment size")
	}
	s := &Sender{
		sched:         sched,
		net:           n,
		pf:            pf,
		cfg:           cfg,
		dst:           dst,
		dstPort:       dstPort,
		srcPort:       srcPort,
		nextSeq:       1,
		highestAcked:  0,
		cwnd:          1,
		ssthresh:      cfg.InitialSSThresh,
		firstSent:     make(map[int]sim.Time),
		retransmitted: make(map[int]bool),
	}
	s.onTimeoutFn = s.onTimeout
	n.BindPort(srcPort, s)
	return s
}

// Stats returns the sender's counters.
func (s *Sender) Stats() Stats { return s.stats }

// Cwnd returns the current congestion window in segments.
func (s *Sender) Cwnd() float64 { return s.cwnd }

// Outstanding returns the number of unacknowledged segments in flight.
func (s *Sender) Outstanding() int { return s.nextSeq - 1 - s.highestAcked }

// HighestAcked returns the highest cumulatively acknowledged segment
// number (0 before any acknowledgement).
func (s *Sender) HighestAcked() int { return s.highestAcked }

// SendBytes asks the sender to transfer n more bytes (the application
// write interface; CBR-over-TCP calls this once per tick).
func (s *Sender) SendBytes(n int) {
	if n <= 0 {
		return
	}
	s.backlogBytes += n
	s.trySend()
}

// Backlog returns bytes accepted from the application but not yet
// transmitted for the first time.
func (s *Sender) Backlog() int { return s.backlogBytes }

// ClearBacklog discards bytes not yet transmitted for the first time.
// In-flight segments still complete normally. The EBL application calls
// this when a platoon stops communicating, so a queued-up offered load
// does not keep transmitting after the scenario says the session is over.
func (s *Sender) ClearBacklog() { s.backlogBytes = 0 }

// trySend transmits new segments while the window and backlog allow.
func (s *Sender) trySend() {
	for s.backlogBytes >= s.cfg.SegmentSize && float64(s.Outstanding()) < math.Floor(s.cwnd) {
		s.backlogBytes -= s.cfg.SegmentSize
		seq := s.nextSeq
		s.nextSeq++
		s.firstSent[seq] = s.sched.Now()
		s.stats.SegmentsSent++
		s.transmit(seq, false)
	}
}

// transmit emits one segment (first transmission or retransmission).
func (s *Sender) transmit(seq int, rtx bool) {
	p := s.pf.New(packet.TypeTCP, s.cfg.SegmentSize+s.cfg.HdrBytes, s.sched.Now())
	p.IP.Dst = s.dst
	p.IP.SrcPort = s.srcPort
	p.IP.DstPort = s.dstPort
	p.SetTCP(packet.TCPHdr{Seq: seq, Retransmit: rtx})
	if s.payloadFn != nil {
		p.Payload = s.payloadFn(p.ReusePayload())
	}
	// Retransmissions carry the original send time so the sink's one-way
	// delay includes loss-recovery waiting, as a trace-based analysis
	// (the paper's methodology) would measure.
	if ts, ok := s.firstSent[seq]; ok {
		p.SentAt = ts
	} else {
		p.SentAt = s.sched.Now()
	}
	p.TCP.Echo = s.sched.Now()
	// Observe before SendFrom, which gives the packet away (a full
	// interface queue releases it on the spot). The source address the
	// network layer would stamp is stamped here so the observer sees the
	// full address.
	if s.onSend != nil {
		p.IP.Src = s.net.ID()
		s.onSend(p)
	}
	s.net.SendFrom(p)
	s.armRtx()
}

// RecvFromNet implements netlayer.PortHandler (ACK path).
func (s *Sender) RecvFromNet(p *packet.Packet) {
	if p.Type != packet.TypeAck || p.TCP == nil {
		return
	}
	ack := p.TCP.Seq
	s.stats.AcksReceived++
	switch {
	case ack > s.highestAcked:
		s.newAck(ack, p)
	case ack == s.highestAcked:
		s.dupAck()
	}
	s.trySend()
}

func (s *Sender) newAck(ack int, p *packet.Packet) {
	// RTT sample: only for segments never retransmitted (Karn).
	if ts, ok := s.firstSent[ack]; ok && !s.retransmitted[ack] {
		s.sampleRTT(s.sched.Now() - ts)
	}
	for seq := s.highestAcked + 1; seq <= ack; seq++ {
		delete(s.firstSent, seq)
		delete(s.retransmitted, seq)
	}
	s.highestAcked = ack
	s.rtoBackoff = 0
	s.dupAcks = 0

	if s.inFR {
		if ack >= s.recover {
			// Full recovery: deflate to ssthresh.
			s.cwnd = s.ssthresh
			s.inFR = false
		} else {
			// Partial ACK (NewReno-style): retransmit the next hole.
			s.retransmitted[ack+1] = true
			s.stats.Retransmits++
			s.transmit(ack+1, true)
		}
	} else if s.cwnd < s.ssthresh {
		s.cwnd++ // slow start
	} else {
		s.cwnd += 1 / s.cwnd // congestion avoidance
	}
	if s.cwnd > s.cfg.MaxCwnd {
		s.cwnd = s.cfg.MaxCwnd
	}
	if s.Outstanding() == 0 {
		s.cancelRtx()
	} else {
		s.restartRtx()
	}
}

func (s *Sender) dupAck() {
	if s.Outstanding() == 0 {
		return
	}
	s.stats.DupAcks++
	s.dupAcks++
	if s.inFR {
		s.cwnd++ // inflate during recovery
		return
	}
	if s.dupAcks == s.cfg.DupThresh {
		lost := s.highestAcked + 1
		if lost <= s.recover {
			// Still inside the window of the last loss episode: don't
			// retrigger on leftover duplicate ACKs (ns-2's recover_).
			s.dupAcks = 0
			return
		}
		// Fast retransmit.
		s.stats.FastRetransmits++
		s.ssthresh = math.Max(s.cwnd/2, 2)
		s.recover = s.nextSeq - 1
		s.retransmitted[lost] = true // Karn: no RTT sample from this one
		s.stats.Retransmits++
		// Reno fast recovery.
		s.inFR = true
		s.cwnd = s.ssthresh + float64(s.cfg.DupThresh)
		s.transmit(lost, true)
	}
}

func (s *Sender) sampleRTT(rtt sim.Time) {
	if rtt < 0 {
		return
	}
	s.obsRTT.ObserveDuration(rtt)
	if !s.rttSeeded {
		s.srtt = rtt
		s.rttvar = rtt / 2
		s.rttSeeded = true
		return
	}
	delta := rtt - s.srtt
	if delta < 0 {
		delta = -delta
	}
	s.rttvar += (delta - s.rttvar) / 4
	s.srtt += (rtt - s.srtt) / 8
}

// rto returns the current retransmission timeout with backoff applied.
func (s *Sender) rto() sim.Time {
	r := s.srtt + 4*s.rttvar
	if !s.rttSeeded {
		r = 3 * sim.Second // conservative pre-sample default (RFC 6298)
	}
	for i := 0; i < s.rtoBackoff; i++ {
		r *= 2
	}
	if r < s.cfg.MinRTO {
		r = s.cfg.MinRTO
	}
	if r > s.cfg.MaxRTO {
		r = s.cfg.MaxRTO
	}
	return r
}

func (s *Sender) armRtx() {
	if s.rtxTimer.Active() {
		return
	}
	s.rtxTimer = s.sched.ScheduleKind(sim.KindTransport, s.rto(), s.onTimeoutFn)
}

func (s *Sender) restartRtx() {
	s.cancelRtx()
	s.rtxTimer = s.sched.ScheduleKind(sim.KindTransport, s.rto(), s.onTimeoutFn)
}

func (s *Sender) cancelRtx() {
	s.rtxTimer.Cancel()
	s.rtxTimer = sim.Timer{}
}

func (s *Sender) onTimeout() {
	s.rtxTimer = sim.Timer{}
	if s.Outstanding() == 0 {
		return
	}
	s.stats.Timeouts++
	s.ssthresh = math.Max(s.cwnd/2, 2)
	s.cwnd = 1
	s.dupAcks = 0
	s.inFR = false
	s.rtoBackoff++
	lost := s.highestAcked + 1
	s.retransmitted[lost] = true
	s.stats.Retransmits++
	s.transmit(lost, true)
}
