// Package span implements deterministic, simulated-time causal tracing:
// every datagram is followed through its full lifecycle — application emit,
// interface-queue enqueue/dequeue, MAC contention or slot wait, PHY
// transmission and airtime, reception (or its loss cause), network-layer
// and AODV hops, and final delivery — as a flat sequence of events keyed by
// packet UID. The per-UID event sequence is the packet's span; the analyzer
// (analyze.go) folds it into the latency components the paper's delay
// curves aggregate away (queueing vs contention vs airtime vs retransmit vs
// rerouting), and the exporters (export.go) emit NDJSON and Chrome
// trace-event JSON.
//
// The recorder follows the repo's disabled-state discipline: a nil
// *Recorder is the disarmed state, every method is nil-receiver-safe, and
// instrumented hot paths pay exactly one nil comparison when tracing is
// off. Because each run owns its recorder and the scheduler is
// single-threaded, armed output is byte-identical at any -j parallelism.
package span

import (
	"fmt"
	"strconv"

	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
)

// Op is the lifecycle step an event records.
type Op uint8

// Lifecycle steps, in rough top-down stack order.
const (
	OpEmit     Op = iota // network layer accepted an application send
	OpEnq                // packet entered the interface queue
	OpDeq                // packet left the interface queue toward the MAC
	OpIfqDrop            // interface queue rejected or evicted the packet
	OpMacWait            // MAC saw the packet at the head of line (slot/medium wait begins)
	OpTx                 // PHY transmission started (Dur = airtime); Cause set when suppressed
	OpRxOK               // PHY reception completed intact
	OpRxLost             // PHY lost the frame (Cause says why)
	OpRetry              // 802.11 MAC scheduled a retransmission (Cause = missing response)
	OpMacDone            // MAC reported the transmit outcome to the network layer
	OpRouteBuf           // AODV buffered the packet pending route discovery
	OpRouteTx            // AODV released the packet onto a discovered route
	OpFwd                // intermediate node forwarded the packet
	OpNetDrop            // network layer or AODV discarded the packet (Cause says why)
	OpDeliver            // network layer delivered the packet to a local port
	OpAppRecv            // application consumed the packet
)

var opNames = [...]string{
	"emit", "enq", "deq", "ifq_drop", "mac_wait", "tx", "rx_ok", "rx_lost",
	"retry", "mac_done", "route_buf", "route_tx", "fwd", "net_drop",
	"deliver", "app_recv",
}

// String returns the op's snake_case wire name.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Cause qualifies an event: why a frame was lost, why a packet was dropped,
// or which timeout triggered a retry. CauseNone events omit the field in
// every export format.
type Cause uint8

// Event causes.
const (
	CauseNone          Cause = iota
	CauseIfqFull             // arriving packet found the interface queue full
	CauseIfqEvict            // control traffic evicted this queued data packet
	CauseRedEarly            // RED dropped the packet probabilistically
	CauseCollision           // reception corrupted by an overlapping frame
	CauseImpaired            // fault-injection impairment corrupted the frame
	CauseBelowThresh         // received power under the reception threshold
	CauseWhileTx             // frame arrived while the radio was transmitting
	CauseCaptured            // a stronger locked frame captured the receiver
	CauseOverlap             // overlapping arrival lost to the locked frame
	CauseOutage              // radio was down (fault injection)
	CauseAbortedByTx         // in-progress reception aborted by a local transmit
	CauseAckTimeout          // 802.11 ACK never arrived
	CauseLinkFail            // MAC gave up on the link (retry limit)
	CauseTTLExpired          // network-layer TTL reached zero
	CauseNoRoute             // no route and discovery not possible
	CauseBufOverflow         // AODV discovery buffer overflowed
	CauseDiscoveryFail       // route discovery timed out; buffered packets dropped
	CauseRepair              // buffered for local route repair after a link break
	CauseSalvage             // salvaged back to discovery after a link break
	CauseNoPort              // delivered to a node with no listener on the port
)

var causeNames = [...]string{
	"", "ifq_full", "ifq_evict", "red_early", "collision", "impaired",
	"below_thresh", "while_tx", "captured", "overlap", "outage",
	"aborted_by_tx", "ack_timeout", "link_fail", "ttl_expired",
	"no_route", "buf_overflow", "discovery_fail", "repair", "salvage",
	"no_port",
}

// String returns the cause's snake_case wire name ("" for CauseNone).
func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// Event is one lifecycle step of one packet at one node. Events are
// appended in scheduler order, so the global slice is already sorted by At
// (with stable intra-timestamp ordering).
type Event struct {
	At    sim.Time      // simulated time of the step
	Dur   sim.Time      // duration (airtime for OpTx), 0 when instantaneous
	UID   uint64        // packet UID (unique per transmission copy)
	Node  packet.NodeID // node at which the step happened
	Op    Op
	Cause Cause
	Type  packet.Type // packet type ("tcp", "ebl", ...)
	Size  int32       // network-layer size in bytes
	Seq   int32       // transport sequence number, -1 when none
}

// String formats the event for violation trails and test failures.
func (e Event) String() string {
	b := make([]byte, 0, 96)
	b = append(b, 't', '=')
	b = strconv.AppendFloat(b, float64(e.At), 'f', 9, 64)
	b = append(b, "s n"...)
	b = strconv.AppendInt(b, int64(int32(e.Node)), 10)
	b = append(b, ' ')
	b = append(b, e.Op.String()...)
	if e.Cause != CauseNone {
		b = append(b, '/')
		b = append(b, e.Cause.String()...)
	}
	b = append(b, " uid="...)
	b = strconv.AppendUint(b, e.UID, 10)
	b = append(b, ' ')
	b = append(b, e.Type.String()...)
	if e.Dur > 0 {
		b = append(b, " dur="...)
		b = strconv.AppendFloat(b, float64(e.Dur), 'f', 9, 64)
		b = append(b, 's')
	}
	return string(b)
}

// flightSize is the flight-recorder ring capacity: the most recent events
// kept for violation trails. 256 events cover several seconds of a single
// packet's churn while bounding memory regardless of run length.
const flightSize = 256

// Recorder collects span events for one run. A nil Recorder is the
// disarmed state: every method is safe to call and does nothing. The
// recorder is not safe for concurrent use; like the rest of the stack it
// relies on the per-run scheduler being single-threaded.
type Recorder struct {
	sched  *sim.Scheduler
	events []Event
	// flight is a ring of the most recent events, consulted when a check
	// violation needs the trail of the offending UID.
	flight  [flightSize]Event
	flightN int // total events ever written to the ring
}

// NewRecorder returns an armed recorder. Bind it to the run's scheduler
// before the first event.
func NewRecorder() *Recorder { return &Recorder{} }

// Bind attaches the run's clock. The recorder stamps every event with the
// scheduler's current time, so layers without their own clock (netlayer,
// interface queues) need no extra plumbing.
func (r *Recorder) Bind(s *sim.Scheduler) {
	if r == nil {
		return
	}
	r.sched = s
}

// Record appends one instantaneous event for p at node.
func (r *Recorder) Record(op Op, cause Cause, node packet.NodeID, p *packet.Packet) {
	if r == nil {
		return
	}
	r.add(op, cause, node, p, 0)
}

// RecordDur appends one event with a duration (OpTx airtime).
func (r *Recorder) RecordDur(op Op, cause Cause, node packet.NodeID, p *packet.Packet, dur sim.Time) {
	if r == nil {
		return
	}
	r.add(op, cause, node, p, dur)
}

func (r *Recorder) add(op Op, cause Cause, node packet.NodeID, p *packet.Packet, dur sim.Time) {
	seq := int32(-1)
	if p.TCP != nil {
		seq = int32(p.TCP.Seq)
	}
	e := Event{
		At: r.sched.Now(), Dur: dur,
		UID: p.UID, Node: node, Op: op, Cause: cause,
		Type: p.Type, Size: int32(p.Size), Seq: seq,
	}
	r.events = append(r.events, e)
	r.flight[r.flightN%flightSize] = e
	r.flightN++
}

// Events returns all recorded events in scheduler order. A nil recorder
// returns nil.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Trail returns the flight-recorder events touching uid, oldest first —
// the last-N-events context a check violation carries. A nil recorder (or
// an unseen UID) returns nil.
func (r *Recorder) Trail(uid uint64) []Event {
	if r == nil {
		return nil
	}
	n := r.flightN
	start := 0
	if n > flightSize {
		start = n - flightSize
	}
	var out []Event
	for i := start; i < n; i++ {
		if e := r.flight[i%flightSize]; e.UID == uid {
			out = append(out, e)
		}
	}
	return out
}

// TrailLines formats Trail(uid) one event per line, for embedding in
// check.Violation.
func (r *Recorder) TrailLines(uid uint64) []string {
	evs := r.Trail(uid)
	if len(evs) == 0 {
		return nil
	}
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = e.String()
	}
	return out
}

// TrailFn adapts the recorder to check.Registry.SetTrail. A nil recorder
// returns nil so the check registry keeps its zero-cost default.
func (r *Recorder) TrailFn() func(uid uint64) []string {
	if r == nil {
		return nil
	}
	return r.TrailLines
}
