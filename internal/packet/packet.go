// Package packet defines the unit of data exchanged between all layers of
// the simulated network stack, in the style of ns-2: one flat structure
// carrying every layer's header, passed by pointer down the sending stack
// and cloned at the broadcast boundary so that independent receivers never
// alias each other's mutable fields.
package packet

import (
	"fmt"

	"vanetsim/internal/sim"
)

// NodeID identifies a node (vehicle) in the scenario. IDs are small dense
// integers assigned by the scenario builder; they double as IP and MAC
// addresses, as in ns-2's flat addressing.
type NodeID int32

// Broadcast is the all-nodes destination address.
const Broadcast NodeID = -1

// None marks an unset node field (e.g. next hop before routing).
const None NodeID = -2

// String formats the ID, with the two sentinels named.
func (n NodeID) String() string {
	switch n {
	case Broadcast:
		return "bcast"
	case None:
		return "none"
	default:
		return fmt.Sprintf("%d", int32(n))
	}
}

// Type classifies a packet by the protocol that originated it, mirroring
// ns-2's packet_t. The type drives queue priority and trace output.
type Type uint8

// Packet types.
const (
	TypeTCP    Type = iota // TCP data segment
	TypeAck                // TCP cumulative acknowledgement
	TypeCBR                // raw CBR datagram over UDP
	TypeAODV               // AODV control packet (RREQ/RREP/RERR/HELLO)
	TypeMACAck             // 802.11 MAC-level acknowledgement frame
	TypeEBL                // extended-brake-light status message (over UDP)
)

var typeNames = [...]string{"tcp", "ack", "cbr", "AODV", "mac-ack", "ebl"}

// String returns the ns-2-style lowercase type name.
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// IsControl reports whether the packet is routing-protocol control traffic,
// which PriQueue services ahead of data.
func (t Type) IsControl() bool { return t == TypeAODV }

// MacSubtype distinguishes frame roles at the MAC layer.
type MacSubtype uint8

// MAC frame subtypes.
const (
	MacData MacSubtype = iota
	MacAck
	// MacJam marks deliberate interference from a jammer node; receivers
	// never deliver it upward, but it occupies the medium and corrupts
	// overlapping receptions like any other energy.
	MacJam
)

// MacHdr is the link-layer header.
type MacHdr struct {
	Src, Dst NodeID
	Subtype  MacSubtype
	// Duration is the NAV value: time the medium will remain busy after
	// this frame, used for 802.11 virtual carrier sense.
	Duration sim.Time
	// Retries counts MAC-level retransmissions of this frame.
	Retries int
}

// IPHdr is the network-layer header.
type IPHdr struct {
	Src, Dst NodeID
	SrcPort  int
	DstPort  int
	TTL      int
	// NextHop is the link-layer destination chosen by routing; Broadcast
	// for flooded packets.
	NextHop NodeID
}

// TCPHdr is the transport header for TypeTCP and TypeAck packets. Sequence
// numbers count segments (ns-2 convention), not bytes.
type TCPHdr struct {
	Seq int // segment sequence number (data) or highest in-order seq (ack)
	// Echo carries the timestamp of the data segment being acknowledged,
	// for RTT sampling (only meaningful on acks of first transmissions).
	Echo sim.Time
	// Retransmit marks a retransmitted data segment, so the receiver's
	// delay bookkeeping and Karn's algorithm can ignore it.
	Retransmit bool
}

// Payload is protocol-specific packet content (AODV messages, EBL brake
// status). Payloads must be clonable because broadcast delivery hands each
// receiver its own copy of the packet.
type Payload interface {
	ClonePayload() Payload
}

// ReusablePayload is an optional Payload extension for pooled packets.
// ClonePayloadOnto copies the receiver's value onto old — the payload left
// behind in a recycled packet — when old has the same concrete type,
// returning the reused object and true; otherwise it returns nil, false
// and the caller falls back to ClonePayload. Implementations exist for the
// high-rate payloads (AODV control, brake status) so that steady-state
// broadcast cloning allocates neither packets nor payloads.
type ReusablePayload interface {
	Payload
	ClonePayloadOnto(old Payload) (Payload, bool)
}

// Packet is the simulator's protocol data unit.
type Packet struct {
	UID  uint64 // unique per scenario, assigned by Factory
	Type Type
	// Size is the packet length in bytes at the network layer (payload +
	// transport + IP headers). The MAC adds its own framing overhead when
	// computing transmission duration.
	Size int

	// CreatedAt is when the originating application or agent built the
	// packet; SentAt is when the transport first put it on the wire. The
	// paper's one-way delay is receive time minus SentAt.
	CreatedAt sim.Time
	SentAt    sim.Time

	Mac MacHdr
	IP  IPHdr
	// TCP is the transport header, nil for non-TCP packets. SetTCP and the
	// clone methods point it at the packet's own storage, so a segment
	// costs no allocation beyond the packet.
	TCP *TCPHdr

	// Payload carries protocol-specific content for AODV and EBL packets.
	Payload Payload

	// NumForwards counts network-layer hops taken so far.
	NumForwards int

	// tcp backs TCP when the header is set through SetTCP or a clone.
	tcp TCPHdr
	// spare is the payload this struct carried before the factory
	// recycled it, kept only so that a same-typed payload can be rewritten
	// in place (see ReusablePayload and ReusePayload). It is never content.
	spare Payload
}

// SetTCP sets the transport header, stored inside the packet.
func (p *Packet) SetTCP(h TCPHdr) {
	p.tcp = h
	p.TCP = &p.tcp
}

// ReusePayload hands over the payload object a recycled packet carried in
// its previous use (nil if none) and forgets it. The caller owns it and may
// overwrite it in place when it has the concrete type the caller needs;
// the releaser of the previous use asserted that nothing still reads it.
func (p *Packet) ReusePayload() Payload {
	old := p.spare
	p.spare = nil
	return old
}

// Clone returns a deep copy of the packet in a new allocation. Header
// structs are copied by value; TCP header and payload are duplicated so a
// forwarder or broadcast receiver can mutate its copy freely.
func (p *Packet) Clone() *Packet { return p.CloneInto(new(Packet)) }

// CloneInto deep-copies p into dst, reusing dst's allocation and, when dst
// still carries a payload (or a spare one) of the same concrete type as
// p's, the payload allocation too (see ReusablePayload). Factory.Clone uses
// it to repopulate a recycled packet. Returns dst.
func (p *Packet) CloneInto(dst *Packet) *Packet {
	old := dst.Payload
	if old == nil {
		old = dst.spare
	}
	*dst = *p
	dst.spare = nil
	if p.TCP != nil {
		dst.tcp = *p.TCP
		dst.TCP = &dst.tcp
	}
	if p.Payload == nil {
		dst.spare = old
		return dst
	}
	if r, ok := p.Payload.(ReusablePayload); ok && old != nil {
		if q, ok := r.ClonePayloadOnto(old); ok {
			dst.Payload = q
			return dst
		}
	}
	dst.Payload = p.Payload.ClonePayload()
	return dst
}

// String summarises the packet for traces and test failures.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt{uid=%d %s %dB %v->%v}", p.UID, p.Type, p.Size, p.IP.Src, p.IP.Dst)
}

// Factory allocates packet UIDs for one scenario and owns its packet pool.
// It is a struct rather than package-level state so that concurrently
// running scenarios (and tests) never share anything.
//
// Every packet of a run comes from New or Clone and goes back through
// Release at the one seam where its last owner lets go of it; the next New
// or Clone reuses it. A packet that is never released is simply collected,
// so a missed release costs an allocation, never a wrong result. Releasing
// a packet something still reads is a bug: the checkall build poisons
// released packets instead of recycling them, so every golden digest
// catches it.
type Factory struct {
	next uint64
	free []*Packet
}

// New returns a fresh packet of the given type and size with a unique UID
// and the creation timestamp filled in. A recycled packet is reset in full;
// only its old payload object survives, out of sight, for ReusePayload.
func (f *Factory) New(t Type, size int, at sim.Time) *Packet {
	p := f.get()
	f.next++
	p.UID = f.next
	p.Type = t
	p.Size = size
	p.CreatedAt = at
	p.IP = IPHdr{Src: None, Dst: None, NextHop: None}
	p.Mac = MacHdr{Src: None, Dst: None}
	return p
}

// Clone returns a deep copy of p (same UID) in a pooled packet: the PHY
// uses it to give a receiver its private copy of a frame.
func (f *Factory) Clone(p *Packet) *Packet { return p.CloneInto(f.get()) }

// get pops a recycled packet, reset to the zero value except for its spare
// payload, or allocates one.
func (f *Factory) get() *Packet {
	n := len(f.free)
	if n == 0 {
		return new(Packet)
	}
	p := f.free[n-1]
	f.free[n-1] = nil
	f.free = f.free[:n-1]
	spare := p.Payload
	if spare == nil {
		spare = p.spare
	}
	*p = Packet{spare: spare}
	return p
}

// Pooled returns how many released packets wait for reuse.
func (f *Factory) Pooled() int { return len(f.free) }

// Allocated returns how many packets this factory has created.
func (f *Factory) Allocated() uint64 { return f.next }
