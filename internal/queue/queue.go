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

// Event is what a queue reports to its Hook.
type Event uint8

// Queue events. A packet that is rejected produces exactly one drop event
// and no EventEnqueue; an eviction reports EventEvicted for the evicted
// packet before the EventEnqueue of the packet that displaced it.
const (
	EventEnqueue   Event = iota // packet accepted into the queue
	EventDequeue                // packet left the queue toward the MAC
	EventDropFull               // arriving packet found the queue full
	EventEvicted                // queued data packet evicted by arriving control traffic
	EventDropEarly              // RED dropped the arriving packet probabilistically
)

// Hook observes a queue's events as they happen, after the queue's state
// has changed (so Len is already the new occupancy, except during an
// eviction's EventEvicted). A nil Hook is valid and is the disarmed state:
// the queue then pays one nil check per event.
type Hook func(ev Event, p *packet.Packet)

// Stats are a queue's lifetime counts, kept whether or not a Hook is set.
// Accepted, Rejected and Dequeued are counted where Enqueue and Dequeue
// return; Drops counts every packet dropped, at the point of the drop.
// A consistent queue therefore satisfies
//
//	Accepted == Dequeued + Evicted + Len()
//	Drops    == Rejected + Evicted
type Stats struct {
	Accepted int // Enqueue calls that returned true
	Rejected int // Enqueue calls that returned false
	Evicted  int // queued packets displaced to admit control traffic
	Dequeued int // Dequeue calls that returned a packet
	Drops    int // packets dropped, rejected or evicted
}

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
	// Stats returns the queue's lifetime counts.
	Stats() Stats
	// Drops returns Stats().Drops; the benchmark harness reads it.
	Drops() int
}

// core is the state and behaviour the three queues share: a control ring
// serviced ahead of a data ring (only PriQueue ever fills the control
// ring), the lifetime Stats and the optional Hook. Each queue type
// supplies only its Enqueue policy.
type core struct {
	control ring
	data    ring
	stats   Stats
	hook    Hook
}

func newCore(capacity int, hook Hook) core {
	if capacity <= 0 {
		panic("queue: capacity must be positive")
	}
	return core{control: newRing(capacity), data: newRing(capacity), hook: hook}
}

// accept pushes p onto r and records the acceptance.
func (c *core) accept(r *ring, p *packet.Packet) bool {
	r.push(p)
	c.stats.Accepted++
	if c.hook != nil {
		c.hook(EventEnqueue, p)
	}
	return true
}

// drop records one dropped packet; ev is its drop event.
func (c *core) drop(p *packet.Packet, ev Event) {
	c.stats.Drops++
	if c.hook != nil {
		c.hook(ev, p)
	}
}

// reject records an Enqueue that returns false.
func (c *core) reject() bool {
	c.stats.Rejected++
	return false
}

// full reports whether the queue holds its capacity.
func (c *core) full() bool { return c.Len() >= c.data.cap }

// Dequeue implements Queue.
func (c *core) Dequeue() *packet.Packet {
	var p *packet.Packet
	if c.control.n > 0 {
		p = c.control.pop()
	} else if p = c.data.pop(); p == nil {
		return nil
	}
	c.stats.Dequeued++
	if c.hook != nil {
		c.hook(EventDequeue, p)
	}
	return p
}

// Peek implements Queue.
func (c *core) Peek() *packet.Packet {
	if c.control.n > 0 {
		return c.control.peek()
	}
	return c.data.peek()
}

// Len implements Queue.
func (c *core) Len() int { return c.control.n + c.data.n }

// Cap implements Queue.
func (c *core) Cap() int { return c.data.cap }

// Stats implements Queue.
func (c *core) Stats() Stats { return c.stats }

// Drops implements Queue.
func (c *core) Drops() int { return c.stats.Drops }

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
type DropTail struct{ core }

var _ Queue = (*DropTail)(nil)

// NewDropTail returns a drop-tail queue holding at most capacity packets.
// ns-2's default ifq length, used by the paper, is 50.
func NewDropTail(capacity int, hook Hook) *DropTail {
	return &DropTail{newCore(capacity, hook)}
}

// Enqueue implements Queue.
func (q *DropTail) Enqueue(p *packet.Packet) bool {
	if q.full() {
		q.drop(p, EventDropFull)
		return q.reject()
	}
	return q.accept(&q.data, p)
}

// PriQueue is a drop-tail queue that services routing-protocol control
// packets ahead of data, matching ns-2's Queue/DropTail/PriQueue (the
// "-ifqtype" the paper's Tcl snippet configures). When a control packet
// arrives at a full queue it evicts the most recently queued data packet;
// a data packet arriving at a full queue is dropped. Each class has its own
// ring of the full capacity, since either may hold every slot.
type PriQueue struct{ core }

var _ Queue = (*PriQueue)(nil)

// NewPriQueue returns a priority interface queue with the given total
// capacity.
func NewPriQueue(capacity int, hook Hook) *PriQueue {
	return &PriQueue{newCore(capacity, hook)}
}

// Enqueue implements Queue.
func (q *PriQueue) Enqueue(p *packet.Packet) bool {
	if !p.Type.IsControl() {
		if q.full() {
			q.drop(p, EventDropFull)
			return q.reject()
		}
		return q.accept(&q.data, p)
	}
	if q.full() {
		if q.data.n == 0 {
			q.drop(p, EventDropFull)
			return q.reject()
		}
		q.drop(q.data.popNewest(), EventEvicted)
		q.stats.Evicted++
	}
	return q.accept(&q.control, p)
}
