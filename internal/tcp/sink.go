package tcp

import (
	"vanetsim/internal/netlayer"
	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
)

// RecvFn observes every data segment arriving at a sink (before duplicate
// filtering of the in-order stream — trace semantics: one event per
// received packet). first reports whether this is the segment number's
// first arrival, as the sink's reassembly state decides it. Metrics
// collectors subscribe here. p is valid only for the call: the network
// layer releases it when the sink returns, so an observer copies the
// fields it keeps.
type RecvFn func(p *packet.Packet, at sim.Time, first bool)

// SinkStats counts receiver-side events.
type SinkStats struct {
	SegmentsReceived int // data arrivals, including out-of-order
	Duplicates       int // segments at or below the cumulative ACK point
	OutOfOrder       int // segments buffered ahead of a hole
	AcksSent         int
	BytesReceived    int // payload bytes in first-time arrivals
}

// Sink is a one-way TCP receiver (ns-2 Agent/TCPSink): it acknowledges
// cumulatively and never delivers data anywhere — the byte counter is the
// "bytes_" variable the paper's Tcl `record` procedure samples for
// throughput.
type Sink struct {
	sched *sim.Scheduler
	net   *netlayer.Net
	pf    *packet.Factory
	cfg   Config
	port  int

	expected int // next in-order segment number
	buffered map[int]bool
	onRecv   RecvFn

	stats SinkStats
}

var _ netlayer.PortHandler = (*Sink)(nil)

// NewSink creates a TCP sink bound to port on net.
func NewSink(sched *sim.Scheduler, n *netlayer.Net, pf *packet.Factory, port int, cfg Config) *Sink {
	k := &Sink{
		sched:    sched,
		net:      n,
		pf:       pf,
		cfg:      cfg,
		port:     port,
		expected: 1,
		buffered: make(map[int]bool),
	}
	n.BindPort(port, k)
	return k
}

// OnRecv registers an observer for every arriving data segment.
func (k *Sink) OnRecv(fn RecvFn) { k.onRecv = fn }

// Stats returns the receiver's counters.
func (k *Sink) Stats() SinkStats { return k.stats }

// Bytes returns the cumulative payload bytes received (first arrivals),
// ns-2's "bytes_".
func (k *Sink) Bytes() int { return k.stats.BytesReceived }

// RecvFromNet implements netlayer.PortHandler.
func (k *Sink) RecvFromNet(p *packet.Packet) {
	if p.Type != packet.TypeTCP || p.TCP == nil {
		return
	}
	k.stats.SegmentsReceived++
	seq := p.TCP.Seq
	if k.onRecv != nil {
		first := seq == k.expected || seq > k.expected && !k.buffered[seq]
		k.onRecv(p, k.sched.Now(), first)
	}
	switch {
	case seq == k.expected:
		k.stats.BytesReceived += p.Size - k.cfg.HdrBytes
		k.expected++
		for k.buffered[k.expected] {
			delete(k.buffered, k.expected)
			k.expected++
		}
	case seq > k.expected:
		if !k.buffered[seq] {
			k.stats.OutOfOrder++
			k.stats.BytesReceived += p.Size - k.cfg.HdrBytes
			k.buffered[seq] = true
		} else {
			k.stats.Duplicates++
		}
	default:
		k.stats.Duplicates++
	}
	k.sendAck(p)
}

// sendAck returns a cumulative acknowledgement to the segment's source.
func (k *Sink) sendAck(data *packet.Packet) {
	k.stats.AcksSent++
	a := k.pf.New(packet.TypeAck, k.cfg.AckBytes, k.sched.Now())
	a.IP.Dst = data.IP.Src
	a.IP.SrcPort = k.port
	a.IP.DstPort = data.IP.SrcPort
	a.SetTCP(packet.TCPHdr{Seq: k.expected - 1, Echo: data.TCP.Echo})
	a.SentAt = k.sched.Now()
	k.net.SendFrom(a)
}
