// Package app provides the traffic applications that ride on the transport
// layer: a constant-bit-rate generator (the paper's "packets are sent at a
// constant bit rate"), a greedy FTP source, and a minimal UDP datagram
// agent for connectionless traffic such as EBL status messages.
package app

import (
	"vanetsim/internal/netlayer"
	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
	"vanetsim/internal/span"
)

// UDPHdrBytes is UDP+IP header overhead.
const UDPHdrBytes = 28

// UDPSource sends datagrams to a fixed destination without any reliability
// or congestion control.
type UDPSource struct {
	sched   *sim.Scheduler
	net     *netlayer.Net
	pf      *packet.Factory
	srcPort int
	dst     packet.NodeID
	dstPort int
	ptype   packet.Type

	sent int
}

// NewUDPSource creates a datagram source on net bound to srcPort,
// addressing (dst, dstPort). ptype tags the datagrams (TypeCBR, TypeEBL).
func NewUDPSource(sched *sim.Scheduler, n *netlayer.Net, pf *packet.Factory, srcPort int, dst packet.NodeID, dstPort int, ptype packet.Type) *UDPSource {
	u := &UDPSource{sched: sched, net: n, pf: pf, srcPort: srcPort, dst: dst, dstPort: dstPort, ptype: ptype}
	n.BindPort(srcPort, noopHandler{})
	return u
}

// Sent returns the number of datagrams sent.
func (u *UDPSource) Sent() int { return u.sent }

// Send transmits one datagram of payload bytes with an optional payload
// body. The network layer owns the packet from here on.
func (u *UDPSource) Send(payload int, body packet.Payload) {
	p := u.pf.New(u.ptype, payload+UDPHdrBytes, u.sched.Now())
	p.IP.Dst = u.dst
	p.IP.SrcPort = u.srcPort
	p.IP.DstPort = u.dstPort
	p.Payload = body
	p.SentAt = u.sched.Now()
	u.sent++
	u.net.SendFrom(p)
}

// SendBytes implements ByteSender so a CBR generator can drive UDP.
func (u *UDPSource) SendBytes(n int) { u.Send(n, nil) }

// noopHandler absorbs anything addressed back at a source's port.
type noopHandler struct{}

func (noopHandler) RecvFromNet(*packet.Packet) {}

// UDPSink receives datagrams on a port and exposes them to an observer.
type UDPSink struct {
	sched  *sim.Scheduler
	node   packet.NodeID
	port   int
	onRecv func(p *packet.Packet, at sim.Time)
	spans  *span.Recorder

	received int
	bytes    int
}

var _ netlayer.PortHandler = (*UDPSink)(nil)

// NewUDPSink binds a datagram sink to port on net.
func NewUDPSink(sched *sim.Scheduler, n *netlayer.Net, port int) *UDPSink {
	k := &UDPSink{sched: sched, node: n.ID(), port: port}
	n.BindPort(port, k)
	return k
}

// SetSpans wires the causal span recorder (may be nil).
func (k *UDPSink) SetSpans(rec *span.Recorder) { k.spans = rec }

// OnRecv registers an observer called for every datagram. p is valid only
// for the call (see netlayer.PortHandler).
func (k *UDPSink) OnRecv(fn func(p *packet.Packet, at sim.Time)) { k.onRecv = fn }

// Received returns the number of datagrams delivered.
func (k *UDPSink) Received() int { return k.received }

// Bytes returns cumulative payload bytes delivered.
func (k *UDPSink) Bytes() int { return k.bytes }

// RecvFromNet implements netlayer.PortHandler.
func (k *UDPSink) RecvFromNet(p *packet.Packet) {
	k.received++
	k.bytes += p.Size - UDPHdrBytes
	k.spans.Record(span.OpAppRecv, span.CauseNone, k.node, p)
	if k.onRecv != nil {
		k.onRecv(p, k.sched.Now())
	}
}
