// Package aodv implements the Ad hoc On-demand Distance Vector routing
// protocol (RFC 3561 essentials, in the shape of ns-2's AODV agent): the
// paper's fixed routing parameter. Routes are discovered only on demand by
// flooding route requests with an expanding ring search, data packets are
// buffered during discovery, and broken links — learned only from the
// MAC's failed unicasts, as there are no hello beacons — trigger local
// repair or route errors back toward traffic sources.
package aodv

import (
	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
)

// Wire sizes in bytes (RFC 3561 message formats plus an IP header).
const (
	rreqSize     = 24 + 20
	rrepSize     = 20 + 20
	rerrBase     = 12 + 20
	rerrPerDest  = 8
	aodvPort     = 254 // routing agents talk agent-to-agent on this port
	infinityHops = 250
)

// RREQ is a route request, flooded toward the destination.
type RREQ struct {
	HopCount  int
	Dst       packet.NodeID
	DstSeq    uint32
	DstKnown  bool // false = "unknown sequence number" flag
	Origin    packet.NodeID
	OriginSeq uint32
	// OriginatedAt bounds the flood's lifetime: receivers discard the
	// request once it is older than BcastIDSave, so a flood cannot outlive
	// its own duplicate-suppression entries. Without it, a slow MAC (a
	// TDMA frame spanning hundreds of slots) can queue forwarded copies
	// for longer than the dedup window and the flood echoes between
	// neighbors indefinitely. Real AODV never needs this field because it
	// assumes millisecond MACs; it carries no wire bytes here.
	OriginatedAt sim.Time
	// flood is the flood's duplicate-suppression record, which stands in
	// for RFC 3561's (originator, broadcast id) pair. Like OriginatedAt it
	// is simulator-side and carries no wire bytes.
	flood *flood
}

// ClonePayload implements packet.Payload; the copy shares the flood record.
func (m *RREQ) ClonePayload() packet.Payload {
	c := *m
	return &c
}

// ClonePayloadOnto implements packet.ReusablePayload, sharing the record too.
func (m *RREQ) ClonePayloadOnto(old packet.Payload) (packet.Payload, bool) {
	if o, ok := old.(*RREQ); ok {
		*o = *m
		return o, true
	}
	return nil, false
}

// flood records which nodes have processed one route-request flood, as a
// bitset over NodeID. sendRREQ makes one per flood and every copy carries
// it, so a node's duplicate test is one bit, not a lookup in its own table.
type flood struct{ seen []uint64 }

// mark records that node id has processed the flood and reports whether
// it already had.
func (f *flood) mark(id packet.NodeID) (dup bool) {
	w, bit := int(id)>>6, uint64(1)<<(uint(id)&63)
	if w >= len(f.seen) {
		f.seen = append(f.seen, make([]uint64, w+1-len(f.seen))...)
	}
	dup = f.seen[w]&bit != 0
	f.seen[w] |= bit
	return dup
}

// RREP is a route reply, unicast hop-by-hop back to the request origin.
type RREP struct {
	HopCount int
	Dst      packet.NodeID // the destination the route leads to
	DstSeq   uint32
	Origin   packet.NodeID // the node that asked
	Lifetime sim.Time
}

// ClonePayload implements packet.Payload.
func (m *RREP) ClonePayload() packet.Payload {
	c := *m
	return &c
}

// ClonePayloadOnto implements packet.ReusablePayload.
func (m *RREP) ClonePayloadOnto(old packet.Payload) (packet.Payload, bool) {
	if o, ok := old.(*RREP); ok {
		*o = *m
		return o, true
	}
	return nil, false
}

// Unreachable names a destination lost with a link break.
type Unreachable struct {
	Dst packet.NodeID
	Seq uint32
}

// RERR is a route error, propagated toward sources using a broken route.
type RERR struct {
	Dests []Unreachable
}

// ClonePayload implements packet.Payload.
func (m *RERR) ClonePayload() packet.Payload {
	c := RERR{Dests: make([]Unreachable, len(m.Dests))}
	copy(c.Dests, m.Dests)
	return &c
}

// ClonePayloadOnto implements packet.ReusablePayload, reusing old's Dests
// backing array when it has the capacity.
func (m *RERR) ClonePayloadOnto(old packet.Payload) (packet.Payload, bool) {
	o, ok := old.(*RERR)
	if !ok {
		return nil, false
	}
	if cap(o.Dests) < len(m.Dests) {
		o.Dests = make([]Unreachable, len(m.Dests))
	} else {
		o.Dests = o.Dests[:len(m.Dests)]
	}
	copy(o.Dests, m.Dests)
	return o, true
}

func rerrSize(n int) int { return rerrBase + rerrPerDest*n }
