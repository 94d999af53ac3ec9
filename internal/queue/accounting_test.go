package queue

import (
	"math/rand"
	"testing"

	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
)

// queueKinds builds each queue flavour at a capacity small enough to fill
// constantly. RED's thresholds sit low with a fast average, so its early
// drops occur within a short sequence.
var queueKinds = []struct {
	name string
	make func(h Hook) Queue
}{
	{"droptail", func(h Hook) Queue { return NewDropTail(4, h) }},
	{"pri", func(h Hook) Queue { return NewPriQueue(4, h) }},
	{"red", func(h Hook) Queue {
		return NewRED(8, REDConfig{MinThresh: 1, MaxThresh: 6, Weight: 0.5, MaxP: 0.5}, sim.NewRNG(1), h)
	}},
}

type hookEvent struct {
	ev Event
	p  *packet.Packet
}

// checkAccounting drives a queue through ops, one byte per operation: a
// data enqueue, a control enqueue or a dequeue. After every operation it
// checks that the hook reported exactly what the call did, in order, and
// that the queue's Stats satisfy both identities:
//
//	Accepted == Dequeued + Evicted + Len()
//	Drops    == Rejected + Evicted
//
// It returns how many events of each kind the hook saw.
func checkAccounting(t *testing.T, newQueue func(Hook) Queue, ops []byte) (seen [EventDropEarly + 1]int) {
	t.Helper()
	var evs []hookEvent
	q := newQueue(func(ev Event, p *packet.Packet) { evs = append(evs, hookEvent{ev, p}) })
	var f packet.Factory
	for i, op := range ops {
		evs = evs[:0]
		before := q.Len()
		switch op % 3 {
		case 0, 1:
			p := mkData(&f)
			if op%3 == 1 {
				p = mkCtrl(&f)
			}
			ok := q.Enqueue(p)
			switch {
			case ok && len(evs) == 1:
				if evs[0] != (hookEvent{EventEnqueue, p}) || q.Len() != before+1 {
					t.Fatalf("op %d: accepted enqueue reported %v, Len %d -> %d", i, evs, before, q.Len())
				}
			case ok && len(evs) == 2:
				// An eviction: the displaced data packet's drop comes
				// before the enqueue of the control packet that caused it.
				if evs[0].ev != EventEvicted || evs[0].p == p || evs[0].p.Type.IsControl() || !p.Type.IsControl() ||
					evs[1] != (hookEvent{EventEnqueue, p}) || q.Len() != before {
					t.Fatalf("op %d: evicting enqueue reported %v, Len %d -> %d", i, evs, before, q.Len())
				}
			case !ok && len(evs) == 1:
				if evs[0].p != p || (evs[0].ev != EventDropFull && evs[0].ev != EventDropEarly) ||
					(evs[0].ev == EventDropEarly && p.Type.IsControl()) || q.Len() != before {
					t.Fatalf("op %d: rejected enqueue reported %v, Len %d -> %d", i, evs, before, q.Len())
				}
			default:
				t.Fatalf("op %d: enqueue returned %v and reported %v", i, ok, evs)
			}
		case 2:
			p := q.Dequeue()
			if (p == nil && len(evs) != 0) || (p != nil && (len(evs) != 1 || evs[0] != (hookEvent{EventDequeue, p}))) {
				t.Fatalf("op %d: dequeue of %v reported %v", i, p, evs)
			}
		}
		for _, e := range evs {
			seen[e.ev]++
		}
		st := q.Stats()
		if st.Accepted != st.Dequeued+st.Evicted+q.Len() {
			t.Fatalf("op %d: accepted %d != dequeued %d + evicted %d + queued %d", i, st.Accepted, st.Dequeued, st.Evicted, q.Len())
		}
		if st.Drops != st.Rejected+st.Evicted || q.Drops() != st.Drops {
			t.Fatalf("op %d: drops %d (Drops() %d) != rejected %d + evicted %d", i, st.Drops, q.Drops(), st.Rejected, st.Evicted)
		}
		want := Stats{
			Accepted: seen[EventEnqueue],
			Rejected: seen[EventDropFull] + seen[EventDropEarly],
			Evicted:  seen[EventEvicted],
			Dequeued: seen[EventDequeue],
			Drops:    seen[EventDropFull] + seen[EventDropEarly] + seen[EventEvicted],
		}
		if st != want {
			t.Fatalf("op %d: Stats %+v, hook events imply %+v", i, st, want)
		}
	}
	return seen
}

// TestQueueAccounting drives every queue flavour through a seeded random
// mix of data and control enqueues and dequeues, and requires each to
// reach the drop events its policy can produce.
func TestQueueAccounting(t *testing.T) {
	reaches := map[string][]Event{
		"droptail": {EventEnqueue, EventDequeue, EventDropFull},
		"pri":      {EventEnqueue, EventDequeue, EventDropFull, EventEvicted},
		"red":      {EventEnqueue, EventDequeue, EventDropFull, EventDropEarly},
	}
	for _, k := range queueKinds {
		t.Run(k.name, func(t *testing.T) {
			ops := make([]byte, 5000)
			rand.New(rand.NewSource(7)).Read(ops)
			seen := checkAccounting(t, k.make, ops)
			for _, ev := range reaches[k.name] {
				if seen[ev] == 0 {
					t.Errorf("event %d never occurred (seen %v)", ev, seen)
				}
			}
		})
	}
}

// FuzzQueueAccounting checks the same properties for arbitrary operation
// sequences: the first byte picks the queue flavour, the rest are the
// operations.
func FuzzQueueAccounting(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 2, 0})
	f.Add([]byte{1, 0, 0, 0, 0, 1, 1, 2, 2, 1})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		checkAccounting(t, queueKinds[int(in[0])%len(queueKinds)].make, in[1:])
	})
}
