// Latency-breakdown analyzer: folds a run's span events into per-packet
// and aggregate delay components — queueing (interface-queue residency),
// contention (MAC slot wait or DIFS/backoff), airtime (PHY transmission),
// retransmit (inter-attempt gaps at one node), rerouting (AODV discovery
// buffering) — the mechanisms behind the paper's aggregate one-way delay
// curves. Residual time (propagation, processing seams) lands in Other.
package span

import (
	"fmt"
	"strings"

	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
)

// Breakdown decomposes one delivered packet's end-to-end latency. The
// components sum to at most Total; Other is the remainder (propagation and
// inter-layer handoff).
type Breakdown struct {
	UID        uint64
	Type       packet.Type
	Total      sim.Time // first emit to first delivery
	Queueing   sim.Time // interface-queue residency across all hops
	Contention sim.Time // MAC wait: TDMA slot wait or DCF DIFS+backoff
	Airtime    sim.Time // transmission time on the medium
	Retransmit sim.Time // gaps between successive attempts at one node
	Rerouting  sim.Time // AODV discovery/repair buffering
	Other      sim.Time // residual: propagation, processing
}

// acc is the per-UID analyzer state machine, driven in event order.
type acc struct {
	b         Breakdown
	order     int
	emitSeen  bool
	delivered bool

	enqAt      sim.Time
	haveEnq    bool
	readyAt    sim.Time
	haveReady  bool
	bufAt      sim.Time
	haveBuf    bool
	lastTxEnd  sim.Time
	lastTxNode packet.NodeID
	haveLastTx bool
}

func (a *acc) step(e Event) {
	if a.delivered {
		return
	}
	switch e.Op {
	case OpEmit:
		if !a.emitSeen {
			a.emitSeen = true
			a.b.Total = -e.At // finalized on delivery
			a.b.Type = e.Type
		}
	case OpEnq:
		a.enqAt, a.haveEnq = e.At, true
	case OpMacWait:
		if a.haveEnq {
			a.b.Queueing += e.At - a.enqAt
			a.haveEnq = false
		}
		a.readyAt, a.haveReady = e.At, true
	case OpDeq:
		if a.haveEnq {
			a.b.Queueing += e.At - a.enqAt
			a.haveEnq = false
		}
		// With a MAC that signals head-of-line readiness (TDMA's Poke),
		// the wait clock is already running; keep the earlier mark so the
		// slot wait counts as contention.
		if !a.haveReady {
			a.readyAt, a.haveReady = e.At, true
		}
	case OpTx:
		if e.Cause != CauseNone {
			return // suppressed transmit (outage): no airtime
		}
		if a.haveReady {
			a.b.Contention += e.At - a.readyAt
			a.haveReady = false
		} else if a.haveLastTx && a.lastTxNode == e.Node && e.At > a.lastTxEnd {
			a.b.Retransmit += e.At - a.lastTxEnd
		}
		a.b.Airtime += e.Dur
		a.lastTxEnd, a.lastTxNode, a.haveLastTx = e.At+e.Dur, e.Node, true
	case OpRouteBuf:
		a.bufAt, a.haveBuf = e.At, true
	case OpRouteTx:
		if a.haveBuf {
			a.b.Rerouting += e.At - a.bufAt
			a.haveBuf = false
		}
	case OpDeliver:
		if a.emitSeen {
			a.b.Total += e.At
			a.delivered = true
		}
	}
}

// Analyze folds events (in recorded order) into one Breakdown per
// delivered packet: UIDs with both an emit and a delivery, in first-emit
// order. Other is the clamped residual, so components never report more
// than the measured total.
func Analyze(events []Event) []Breakdown {
	accs := make(map[uint64]*acc)
	var uids []uint64
	for _, e := range events {
		a := accs[e.UID]
		if a == nil {
			a = &acc{b: Breakdown{UID: e.UID}}
			accs[e.UID] = a
			uids = append(uids, e.UID)
		}
		a.step(e)
	}
	var out []Breakdown
	for _, uid := range uids {
		a := accs[uid]
		if !a.emitSeen || !a.delivered {
			continue
		}
		b := a.b
		accounted := b.Queueing + b.Contention + b.Airtime + b.Retransmit + b.Rerouting
		b.Other = b.Total - accounted
		if b.Other < 0 {
			b.Other = 0
		}
		out = append(out, b)
	}
	return out
}

// Aggregate is the mean latency decomposition over a set of delivered
// packets.
type Aggregate struct {
	N          int
	Total      sim.Time
	Queueing   sim.Time
	Contention sim.Time
	Airtime    sim.Time
	Retransmit sim.Time
	Rerouting  sim.Time
	Other      sim.Time
}

// Summarize averages breakdowns into one aggregate. An empty input returns
// the zero aggregate.
func Summarize(bs []Breakdown) Aggregate {
	var a Aggregate
	if len(bs) == 0 {
		return a
	}
	for _, b := range bs {
		a.Total += b.Total
		a.Queueing += b.Queueing
		a.Contention += b.Contention
		a.Airtime += b.Airtime
		a.Retransmit += b.Retransmit
		a.Rerouting += b.Rerouting
		a.Other += b.Other
	}
	n := sim.Time(len(bs))
	a.N = len(bs)
	a.Total /= n
	a.Queueing /= n
	a.Contention /= n
	a.Airtime /= n
	a.Retransmit /= n
	a.Rerouting /= n
	a.Other /= n
	return a
}

// componentNames orders the table rows of the format helpers.
var componentNames = [...]string{
	"queueing", "contention", "airtime", "retransmit", "rerouting", "other", "total",
}

func (a Aggregate) components() [7]sim.Time {
	return [7]sim.Time{
		a.Queueing, a.Contention, a.Airtime, a.Retransmit, a.Rerouting, a.Other, a.Total,
	}
}

// FormatComparison renders aggregates side by side as an aligned table of
// mean per-component delays in milliseconds, one labelled column per
// aggregate — the 802.11-vs-TDMA decomposition of the paper's scenario.
func FormatComparison(labels []string, aggs []Aggregate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", "component")
	for _, l := range labels {
		fmt.Fprintf(&b, " %16s", l+" (ms)")
	}
	b.WriteByte('\n')
	for i, name := range componentNames {
		fmt.Fprintf(&b, "%-12s", name)
		for _, a := range aggs {
			fmt.Fprintf(&b, " %16.3f", float64(a.components()[i])*1e3)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-12s", "packets")
	for _, a := range aggs {
		fmt.Fprintf(&b, " %16d", a.N)
	}
	b.WriteByte('\n')
	return b.String()
}
