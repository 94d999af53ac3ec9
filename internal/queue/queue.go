// Package queue implements the interface queues that sit between the
// network layer and the MAC, modelled on ns-2's Queue/DropTail and
// Queue/DropTail/PriQueue — the paper's fixed "ifq" parameter.
//
// The drop-tail queue is load-bearing for the paper's results: the
// transient/steady-state shape of the one-way delay curves (Figs. 5–14) is
// the queue filling to capacity and then holding every later packet for
// queue-length/service-rate seconds.
package queue

import "vanetsim/internal/packet"

// DropReason explains why a queue rejected a packet, for traces.
type DropReason string

// Drop reasons.
const (
	DropFull    DropReason = "IFQ" // arriving packet found the queue full
	DropEvicted DropReason = "IFQ-EVICT"
	DropEarly   DropReason = "IFQ-RED" // probabilistic early drop
)

// DropFn observes dropped packets (for tracing and statistics). A nil DropFn
// is valid and means "discard silently".
type DropFn func(p *packet.Packet, reason DropReason)

// Queue is a bounded interface queue. Implementations are not safe for
// concurrent use; the simulator is single-threaded.
type Queue interface {
	// Enqueue offers a packet. It returns false if the packet was dropped
	// (the queue was full and the packet did not displace anything).
	Enqueue(p *packet.Packet) bool
	// Dequeue removes and returns the next packet to transmit, or nil if
	// the queue is empty.
	Dequeue() *packet.Packet
	// Peek returns the next packet without removing it, or nil.
	Peek() *packet.Packet
	// Len returns the number of queued packets.
	Len() int
	// Cap returns the capacity in packets.
	Cap() int
	// Drops returns how many packets this queue has dropped so far.
	Drops() int
}

// ring is a fixed-capacity FIFO of packets. Its backing array is made on
// the first push and reused for the queue's lifetime, so steady-state
// queueing allocates nothing however often the queue fills and drains.
type ring struct {
	buf  []*packet.Packet
	cap  int
	head int // index of the oldest packet
	n    int
}

func newRing(capacity int) ring { return ring{cap: capacity} }

// push appends p at the tail; the caller has checked there is room.
func (r *ring) push(p *packet.Packet) {
	if r.buf == nil {
		r.buf = make([]*packet.Packet, r.cap)
	}
	r.buf[(r.head+r.n)%r.cap] = p
	r.n++
}

// pop removes and returns the oldest packet, or nil.
func (r *ring) pop() *packet.Packet {
	if r.n == 0 {
		return nil
	}
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % r.cap
	r.n--
	return p
}

// popNewest removes and returns the most recently pushed packet, or nil.
func (r *ring) popNewest() *packet.Packet {
	if r.n == 0 {
		return nil
	}
	r.n--
	i := (r.head + r.n) % r.cap
	p := r.buf[i]
	r.buf[i] = nil
	return p
}

// peek returns the oldest packet without removing it, or nil.
func (r *ring) peek() *packet.Packet {
	if r.n == 0 {
		return nil
	}
	return r.buf[r.head]
}

// DropTail is a FIFO queue that drops the arriving packet when full,
// matching ns-2's Queue/DropTail.
type DropTail struct {
	items  ring
	drops  int
	onDrop DropFn
}

var _ Queue = (*DropTail)(nil)

// NewDropTail returns a drop-tail queue holding at most capacity packets.
// ns-2's default ifq length, used by the paper, is 50.
func NewDropTail(capacity int, onDrop DropFn) *DropTail {
	if capacity <= 0 {
		panic("queue: capacity must be positive")
	}
	return &DropTail{items: newRing(capacity), onDrop: onDrop}
}

// Enqueue implements Queue.
func (q *DropTail) Enqueue(p *packet.Packet) bool {
	if q.items.n >= q.items.cap {
		q.drop(p, DropFull)
		return false
	}
	q.items.push(p)
	return true
}

// Dequeue implements Queue.
func (q *DropTail) Dequeue() *packet.Packet { return q.items.pop() }

// Peek implements Queue.
func (q *DropTail) Peek() *packet.Packet { return q.items.peek() }

// Len implements Queue.
func (q *DropTail) Len() int { return q.items.n }

// Cap implements Queue.
func (q *DropTail) Cap() int { return q.items.cap }

// Drops implements Queue.
func (q *DropTail) Drops() int { return q.drops }

func (q *DropTail) drop(p *packet.Packet, r DropReason) {
	q.drops++
	if q.onDrop != nil {
		q.onDrop(p, r)
	}
}

// PriQueue is a drop-tail queue that services routing-protocol control
// packets ahead of data, matching ns-2's Queue/DropTail/PriQueue (the
// "-ifqtype" the paper's Tcl snippet configures). When a control packet
// arrives at a full queue it evicts the most recently queued data packet;
// a data packet arriving at a full queue is dropped. Each class has its own
// ring of the full capacity, since either may hold every slot.
type PriQueue struct {
	control ring
	data    ring
	cap     int
	drops   int
	onDrop  DropFn
}

var _ Queue = (*PriQueue)(nil)

// NewPriQueue returns a priority interface queue with the given total
// capacity.
func NewPriQueue(capacity int, onDrop DropFn) *PriQueue {
	if capacity <= 0 {
		panic("queue: capacity must be positive")
	}
	return &PriQueue{control: newRing(capacity), data: newRing(capacity), cap: capacity, onDrop: onDrop}
}

// Enqueue implements Queue.
func (q *PriQueue) Enqueue(p *packet.Packet) bool {
	if p.Type.IsControl() {
		if q.Len() >= q.cap {
			if q.data.n == 0 {
				q.drop(p, DropFull)
				return false
			}
			q.drop(q.data.popNewest(), DropEvicted)
		}
		q.control.push(p)
		return true
	}
	if q.Len() >= q.cap {
		q.drop(p, DropFull)
		return false
	}
	q.data.push(p)
	return true
}

// Dequeue implements Queue.
func (q *PriQueue) Dequeue() *packet.Packet {
	if q.control.n > 0 {
		return q.control.pop()
	}
	return q.data.pop()
}

// Peek implements Queue.
func (q *PriQueue) Peek() *packet.Packet {
	if q.control.n > 0 {
		return q.control.peek()
	}
	return q.data.peek()
}

// Len implements Queue.
func (q *PriQueue) Len() int { return q.control.n + q.data.n }

// Cap implements Queue.
func (q *PriQueue) Cap() int { return q.cap }

// Drops implements Queue.
func (q *PriQueue) Drops() int { return q.drops }

func (q *PriQueue) drop(p *packet.Packet, r DropReason) {
	q.drops++
	if q.onDrop != nil {
		q.onDrop(p, r)
	}
}
