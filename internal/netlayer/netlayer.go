// Package netlayer is the per-node network layer: it dispatches packets
// between transport agents (by port), the routing agent, and the interface
// queue + MAC below, mirroring ns-2's link-layer/routing-agent glue.
package netlayer

import (
	"fmt"

	"vanetsim/internal/mac"
	"vanetsim/internal/packet"
	"vanetsim/internal/queue"
	"vanetsim/internal/span"
)

// DefaultTTL is the initial IP TTL for locally originated packets (ns-2
// uses 32 for AODV scenarios).
const DefaultTTL = 32

// PortHandler is a transport endpoint bound to a local port.
type PortHandler interface {
	// RecvFromNet delivers a packet addressed to the port. p is valid only
	// for the call: the network layer releases it to the packet pool when
	// the handler returns, so a handler copies what it keeps.
	RecvFromNet(p *packet.Packet)
}

// Routing is the routing agent interface. AODV implements it; a static
// routing table for tests can too. The agent owns every forwarding
// decision: the network layer hands it all traffic.
type Routing interface {
	// HandleOutgoing routes a locally originated packet (IP.Src/Dst set).
	// The agent either sets IP.NextHop and transmits it via Net.Send, or
	// buffers it pending route discovery.
	HandleOutgoing(p *packet.Packet)
	// HandleIncoming processes a packet arriving from the MAC: protocol
	// control, local delivery (via Net.DeliverLocally), or forwarding.
	HandleIncoming(p *packet.Packet)
	// MacTxDone relays MAC transmission fate; ok=false signals a broken
	// link to p.Mac.Dst, and the agent then owns p (it may salvage it).
	// With ok=true p is valid only for the call.
	MacTxDone(p *packet.Packet, ok bool)
}

// Stats counts network-layer outcomes.
type Stats struct {
	Sent       int // locally originated packets handed to routing
	Delivered  int // packets delivered to a local port
	NoPort     int // local deliveries with no bound handler
	IfqDropped int // packets rejected by the interface queue
}

// Net is one node's network layer. Wire it with Attach and SetRouting
// before the simulation starts.
//
// Net is where most packets end: it releases to the packet pool every
// packet delivered to a local port, every routing-control packet its agent
// has digested, every packet the interface queue rejects, and every frame
// the MAC reports sent (MacTxDone with ok=true).
type Net struct {
	id    packet.NodeID
	pf    *packet.Factory
	ifq   queue.Queue
	mac   mac.MAC
	route Routing
	ports map[int]PortHandler
	spans *span.Recorder

	stats Stats
}

var _ mac.Upcall = (*Net)(nil)

// New creates a network layer for node id that releases the packets it
// consumes into pf, the run's packet factory.
func New(id packet.NodeID, pf *packet.Factory) *Net {
	return &Net{id: id, pf: pf, ports: make(map[int]PortHandler)}
}

// ID returns the owning node's ID.
func (n *Net) ID() packet.NodeID { return n.id }

// Stats returns the layer's counters.
func (n *Net) Stats() Stats { return n.stats }

// Attach wires the interface queue and MAC below this layer.
func (n *Net) Attach(ifq queue.Queue, m mac.MAC) {
	n.ifq = ifq
	n.mac = m
}

// SetRouting installs the routing agent.
func (n *Net) SetRouting(r Routing) { n.route = r }

// SetSpans wires the causal span recorder (may be nil). The recorder
// carries the run's clock, so this layer needs no scheduler of its own.
func (n *Net) SetSpans(rec *span.Recorder) { n.spans = rec }

// BindPort registers a transport handler on a local port. Binding an
// already-bound port panics: silent replacement would orphan an agent.
func (n *Net) BindPort(port int, h PortHandler) {
	if _, dup := n.ports[port]; dup {
		panic(fmt.Sprintf("netlayer: node %v port %d already bound", n.id, port))
	}
	n.ports[port] = h
}

// SendFrom originates a packet from a local transport agent. The IP
// destination and ports must be set; source and TTL are filled here.
func (n *Net) SendFrom(p *packet.Packet) {
	p.IP.Src = n.id
	if p.IP.TTL == 0 {
		p.IP.TTL = DefaultTTL
	}
	n.stats.Sent++
	n.spans.Record(span.OpEmit, span.CauseNone, n.id, p)
	n.route.HandleOutgoing(p)
}

// Send transmits a routed packet (IP.NextHop set) through the interface
// queue and MAC. Routing agents call this for both forwarded data and
// their own control packets. The caller gives p up: a packet the queue
// rejects is released here, after the queue's drop hook has read it.
func (n *Net) Send(p *packet.Packet) {
	if p.IP.NextHop == packet.None {
		panic(fmt.Sprintf("netlayer: node %v sending packet with no next hop: %v", n.id, p))
	}
	if !n.ifq.Enqueue(p) {
		n.stats.IfqDropped++
		n.pf.Release(p)
		return
	}
	n.mac.Poke()
}

// DeliverLocally dispatches a packet addressed to this node up to the
// transport handler bound to its destination port, then releases it: the
// handler's call is the packet's last use.
func (n *Net) DeliverLocally(p *packet.Packet) {
	h, ok := n.ports[p.IP.DstPort]
	if !ok {
		n.stats.NoPort++
		n.spans.Record(span.OpNetDrop, span.CauseNoPort, n.id, p)
		n.pf.Release(p)
		return
	}
	n.stats.Delivered++
	n.spans.Record(span.OpDeliver, span.CauseNone, n.id, p)
	h.RecvFromNet(p)
	n.pf.Release(p)
}

// RecvFromMac implements mac.Upcall.
func (n *Net) RecvFromMac(p *packet.Packet) {
	// Routing-control packets terminate here: the agent's handlers copy
	// whatever they keep (table entries; forwarded floods are fresh
	// packets), so the receiver's private clone and its payload go straight
	// back to the pool. Data packets are released where they end: local
	// delivery, a drop, or the MAC's report that the next hop has them —
	// possibly inside HandleIncoming, so the type is read before it runs.
	control := p.Type.IsControl()
	n.route.HandleIncoming(p)
	if control {
		n.pf.Release(p)
	}
}

// MacTxDone implements mac.Upcall. A frame the MAC delivered (ok) has no
// owner left once routing has seen the report, so it is released; a failed
// one stays with the routing agent, which may salvage it.
func (n *Net) MacTxDone(p *packet.Packet, ok bool) {
	if ok {
		n.spans.Record(span.OpMacDone, span.CauseNone, n.id, p)
	} else {
		n.spans.Record(span.OpMacDone, span.CauseLinkFail, n.id, p)
	}
	n.route.MacTxDone(p, ok)
	if ok {
		n.pf.Release(p)
	}
}
