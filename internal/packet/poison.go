package packet

import (
	"math"

	"vanetsim/internal/sim"
)

// Poison values the checkall build writes over every released packet (see
// release_checkall.go). Each is impossible for a live packet, so a read of
// one through a stale reference shows up as a digest mismatch, and the
// dropped TCP header and payload turn a read of those into a nil
// dereference.
const (
	poisonUID  = ^uint64(0)
	poisonInt  = math.MinInt32
	poisonType = Type(0xee)
	poisonNode = NodeID(math.MinInt32)
)

// poison overwrites p with the poison values.
func (p *Packet) poison() {
	nan := sim.Time(math.NaN())
	*p = Packet{
		UID:       poisonUID,
		Type:      poisonType,
		Size:      poisonInt,
		CreatedAt: nan,
		SentAt:    nan,
		Mac: MacHdr{
			Src: poisonNode, Dst: poisonNode,
			Subtype: MacSubtype(0xee), Duration: nan, Retries: poisonInt,
		},
		IP: IPHdr{
			Src: poisonNode, Dst: poisonNode, NextHop: poisonNode,
			SrcPort: poisonInt, DstPort: poisonInt, TTL: poisonInt,
		},
		NumForwards: poisonInt,
	}
}

// poisoned reports whether p was released in the checkall build.
func (p *Packet) poisoned() bool { return p.UID == poisonUID }
