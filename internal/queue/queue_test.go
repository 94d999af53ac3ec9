package queue

import (
	"testing"
	"testing/quick"

	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
)

func mkData(f *packet.Factory) *packet.Packet { return f.New(packet.TypeTCP, 1000, 0) }
func mkCtrl(f *packet.Factory) *packet.Packet { return f.New(packet.TypeAODV, 48, 0) }

func TestDropTailFIFO(t *testing.T) {
	var f packet.Factory
	q := NewDropTail(10, nil)
	var uids []uint64
	for i := 0; i < 5; i++ {
		p := mkData(&f)
		uids = append(uids, p.UID)
		if !q.Enqueue(p) {
			t.Fatal("enqueue under capacity failed")
		}
	}
	if q.Len() != 5 {
		t.Fatalf("Len = %d, want 5", q.Len())
	}
	for i := 0; i < 5; i++ {
		p := q.Dequeue()
		if p.UID != uids[i] {
			t.Fatalf("FIFO violated at %d: got %d want %d", i, p.UID, uids[i])
		}
	}
	if q.Dequeue() != nil {
		t.Fatal("Dequeue from empty should be nil")
	}
}

func TestDropTailDropsArrivingWhenFull(t *testing.T) {
	var f packet.Factory
	var dropped []*packet.Packet
	q := NewDropTail(2, func(ev Event, p *packet.Packet) {
		switch ev {
		case EventDropFull:
			dropped = append(dropped, p)
		case EventEnqueue, EventDequeue:
		default:
			t.Fatalf("event = %v, want %v", ev, EventDropFull)
		}
	})
	a, b, c := mkData(&f), mkData(&f), mkData(&f)
	q.Enqueue(a)
	q.Enqueue(b)
	if q.Enqueue(c) {
		t.Fatal("enqueue at capacity should fail")
	}
	if q.Stats().Drops != 1 || len(dropped) != 1 || dropped[0] != c {
		t.Fatalf("the arriving packet must be the one dropped; drops=%d", q.Stats().Drops)
	}
	// The queued packets are intact.
	if q.Dequeue() != a || q.Dequeue() != b {
		t.Fatal("drop disturbed queued packets")
	}
}

func TestDropTailPeek(t *testing.T) {
	var f packet.Factory
	q := NewDropTail(4, nil)
	if q.Peek() != nil {
		t.Fatal("Peek on empty should be nil")
	}
	p := mkData(&f)
	q.Enqueue(p)
	if q.Peek() != p {
		t.Fatal("Peek should return head")
	}
	if q.Len() != 1 {
		t.Fatal("Peek must not remove")
	}
}

func TestDropTailCapAndPanic(t *testing.T) {
	q := NewDropTail(7, nil)
	if q.Cap() != 7 {
		t.Fatalf("Cap = %d", q.Cap())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity should panic")
		}
	}()
	NewDropTail(0, nil)
}

func TestPriQueueControlFirst(t *testing.T) {
	var f packet.Factory
	q := NewPriQueue(10, nil)
	d1, c1, d2, c2 := mkData(&f), mkCtrl(&f), mkData(&f), mkCtrl(&f)
	for _, p := range []*packet.Packet{d1, c1, d2, c2} {
		q.Enqueue(p)
	}
	want := []*packet.Packet{c1, c2, d1, d2}
	for i, w := range want {
		if got := q.Dequeue(); got != w {
			t.Fatalf("dequeue %d: got uid %d, want uid %d", i, got.UID, w.UID)
		}
	}
}

func TestPriQueueControlEvictsData(t *testing.T) {
	var f packet.Factory
	var evicted []*packet.Packet
	q := NewPriQueue(2, func(ev Event, p *packet.Packet) {
		if ev == EventEvicted {
			evicted = append(evicted, p)
		}
	})
	d1, d2 := mkData(&f), mkData(&f)
	q.Enqueue(d1)
	q.Enqueue(d2)
	c := mkCtrl(&f)
	if !q.Enqueue(c) {
		t.Fatal("control packet should displace data when full")
	}
	if len(evicted) != 1 || evicted[0] != d2 {
		t.Fatal("most recently queued data packet should be evicted")
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	if q.Peek() != c {
		t.Fatal("control packet should be at head")
	}
}

func TestPriQueueDataDroppedWhenFull(t *testing.T) {
	var f packet.Factory
	q := NewPriQueue(1, nil)
	q.Enqueue(mkCtrl(&f))
	if q.Enqueue(mkData(&f)) {
		t.Fatal("data packet must be dropped when queue is full")
	}
	if q.Stats().Drops != 1 {
		t.Fatalf("Drops = %d, want 1", q.Stats().Drops)
	}
}

func TestPriQueueAllControlFullDropsControl(t *testing.T) {
	var f packet.Factory
	q := NewPriQueue(2, nil)
	q.Enqueue(mkCtrl(&f))
	q.Enqueue(mkCtrl(&f))
	if q.Enqueue(mkCtrl(&f)) {
		t.Fatal("control packet with no data to evict must be dropped")
	}
}

func TestPriQueueEmpty(t *testing.T) {
	q := NewPriQueue(4, nil)
	if q.Dequeue() != nil || q.Peek() != nil || q.Len() != 0 {
		t.Fatal("empty queue invariants violated")
	}
}

// Property: DropTail never exceeds capacity, never reorders, and
// enqueued+dropped accounts for every offer.
func TestDropTailProperty(t *testing.T) {
	f := func(ops []bool, capRaw uint8) bool {
		capacity := int(capRaw%20) + 1
		var pf packet.Factory
		q := NewDropTail(capacity, nil)
		var model []uint64 // expected queue contents
		accepted, dropped := 0, 0
		for _, isEnq := range ops {
			if isEnq {
				p := mkData(&pf)
				if q.Enqueue(p) {
					accepted++
					model = append(model, p.UID)
				} else {
					dropped++
				}
			} else {
				got := q.Dequeue()
				if len(model) == 0 {
					if got != nil {
						return false
					}
				} else {
					if got == nil || got.UID != model[0] {
						return false
					}
					model = model[1:]
				}
			}
			if q.Len() > capacity || q.Len() != len(model) {
				return false
			}
		}
		return q.Stats().Drops == dropped && accepted+dropped == int(pf.Allocated())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: PriQueue never exceeds capacity and never delivers a data
// packet while control packets are queued.
func TestPriQueueProperty(t *testing.T) {
	f := func(ops []uint8, capRaw uint8) bool {
		capacity := int(capRaw%10) + 1
		var pf packet.Factory
		q := NewPriQueue(capacity, nil)
		ctrlQueued := 0
		for _, op := range ops {
			switch op % 3 {
			case 0:
				q.Enqueue(mkData(&pf))
			case 1:
				if q.Enqueue(mkCtrl(&pf)) {
					ctrlQueued++
				}
			case 2:
				p := q.Dequeue()
				if p != nil && p.Type.IsControl() {
					ctrlQueued--
				}
				if p != nil && !p.Type.IsControl() && ctrlQueued > 0 {
					return false // data jumped ahead of control
				}
			}
			if q.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDropTail(b *testing.B) {
	var f packet.Factory
	q := NewDropTail(64, nil)
	p := mkData(&f)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Enqueue(p)
		q.Dequeue()
	}
}

func BenchmarkPriQueueMixed(b *testing.B) {
	var f packet.Factory
	q := NewPriQueue(64, nil)
	d, c := mkData(&f), mkCtrl(&f)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Enqueue(d)
		q.Enqueue(c)
		q.Dequeue()
		q.Dequeue()
	}
}

// sliceModel is the reference interface queue: the plain-slice drop-tail
// and priority queues the rings replaced, written for clarity.
type sliceModel struct {
	pri           bool
	cap           int
	control, data []*packet.Packet
	drops         []dropEvent
}

type dropEvent struct {
	uid uint64
	ev  Event
}

func (m *sliceModel) enqueue(p *packet.Packet) bool {
	if !m.pri || !p.Type.IsControl() {
		if len(m.control)+len(m.data) >= m.cap {
			m.drops = append(m.drops, dropEvent{p.UID, EventDropFull})
			return false
		}
		m.data = append(m.data, p)
		return true
	}
	if len(m.control)+len(m.data) >= m.cap {
		if len(m.data) == 0 {
			m.drops = append(m.drops, dropEvent{p.UID, EventDropFull})
			return false
		}
		last := m.data[len(m.data)-1]
		m.data = m.data[:len(m.data)-1]
		m.drops = append(m.drops, dropEvent{last.UID, EventEvicted})
	}
	m.control = append(m.control, p)
	return true
}

func (m *sliceModel) dequeue() *packet.Packet {
	if len(m.control) > 0 {
		p := m.control[0]
		m.control = m.control[1:]
		return p
	}
	if len(m.data) > 0 {
		p := m.data[0]
		m.data = m.data[1:]
		return p
	}
	return nil
}

func (m *sliceModel) peek() *packet.Packet {
	if len(m.control) > 0 {
		return m.control[0]
	}
	if len(m.data) > 0 {
		return m.data[0]
	}
	return nil
}

// TestQueuesMatchSliceModel drives the ring-backed DropTail, PriQueue and
// RED (with early drop out of reach) through random mixes of data and
// control enqueues, dequeues and peeks, at small capacities so the rings
// wrap and fill constantly, and checks every result — packet identity,
// acceptance, length and each drop with its reason — against the slice
// model.
func TestQueuesMatchSliceModel(t *testing.T) {
	check := func(kind uint8, capacity uint8, ops []uint8) bool {
		capN := int(capacity%6) + 1
		m := &sliceModel{pri: kind%3 == 1, cap: capN}
		var drops []dropEvent
		onDrop := func(ev Event, p *packet.Packet) {
			if ev != EventEnqueue && ev != EventDequeue {
				drops = append(drops, dropEvent{p.UID, ev})
			}
		}
		var q Queue
		switch kind % 3 {
		case 0:
			q = NewDropTail(capN, onDrop)
		case 1:
			q = NewPriQueue(capN, onDrop)
		default:
			// Thresholds above any reachable average: RED degenerates to
			// drop-tail, and the ring is what is under test.
			cfg := REDConfig{MinThresh: 100, MaxThresh: 200, Weight: 0.5, MaxP: 0.1}
			q = NewRED(capN, cfg, sim.NewRNG(1), onDrop)
		}
		var f packet.Factory
		for i, op := range ops {
			switch op % 4 {
			case 0, 1: // enqueue data (twice as likely, so queues fill)
				p := mkData(&f)
				if got, want := q.Enqueue(p), m.enqueue(p); got != want {
					t.Logf("op %d: data Enqueue = %v, model %v", i, got, want)
					return false
				}
			case 2: // enqueue control
				p := mkCtrl(&f)
				if got, want := q.Enqueue(p), m.enqueue(p); got != want {
					t.Logf("op %d: control Enqueue = %v, model %v", i, got, want)
					return false
				}
			case 3:
				if q.Peek() != m.peek() {
					t.Logf("op %d: Peek differs from model", i)
					return false
				}
				if got, want := q.Dequeue(), m.dequeue(); got != want {
					t.Logf("op %d: Dequeue differs from model", i)
					return false
				}
			}
			if q.Len() != len(m.control)+len(m.data) || q.Stats().Drops != len(m.drops) {
				t.Logf("op %d: Len %d Drops %d, model %d %d", i, q.Len(), q.Stats().Drops, len(m.control)+len(m.data), len(m.drops))
				return false
			}
		}
		if len(drops) != len(m.drops) {
			t.Logf("drop hook saw %d drops, model %d", len(drops), len(m.drops))
			return false
		}
		for i := range drops {
			if drops[i] != m.drops[i] {
				t.Logf("drop %d: %+v, model %+v", i, drops[i], m.drops[i])
				return false
			}
		}
		// Drain: the remaining order must match too.
		for {
			got, want := q.Dequeue(), m.dequeue()
			if got != want {
				t.Logf("drain: Dequeue differs from model")
				return false
			}
			if got == nil {
				return q.Len() == 0
			}
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
