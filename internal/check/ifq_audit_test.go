package check_test

// The interface-queue audits (ifq/conservation, ifq/drop_accounting) read
// every node's queue Stats at the end of a run, in scenario.World.Finish;
// these tests drive them through a checked World.

import (
	"testing"

	"vanetsim/internal/geom"
	"vanetsim/internal/packet"
	"vanetsim/internal/queue"
	"vanetsim/internal/scenario"
)

// corruptQueue is a queue whose books lie: it reports st as its Stats.
type corruptQueue struct {
	queue.Queue
	st queue.Stats
}

func (q corruptQueue) Stats() queue.Stats { return q.st }

// checkedWorld returns a checked TDMA world with two idle nodes whose
// interface queues are drop-tail queues of the given capacity.
func checkedWorld(capacity int) *scenario.World {
	cfg := scenario.DefaultStackConfig(scenario.MACTDMA)
	cfg.Check = true
	cfg.Queue, cfg.QueueCap = scenario.QueueDropTail, capacity
	w := scenario.NewWorld(cfg, 1)
	for id := 0; id < 2; id++ {
		x := float64(id) * 10
		w.AddNode(packet.NodeID(id), func() geom.Vec2 { return geom.V(x, 0) })
	}
	return w
}

// auditWithStats runs the end-of-run audit with node 1 reporting st.
func auditWithStats(st queue.Stats) []string {
	w := checkedWorld(4)
	n := w.Nodes[1]
	n.Ifq = corruptQueue{Queue: n.Ifq, st: st}
	var rules []string
	for _, v := range w.Finish().Violations {
		rules = append(rules, v.Layer+"/"+v.Name)
	}
	return rules
}

func TestCountingQueueConservation(t *testing.T) {
	w := checkedWorld(2)
	q := w.Nodes[1].Ifq
	p := func() *packet.Packet { return &packet.Packet{} }
	if !q.Enqueue(p()) || !q.Enqueue(p()) {
		t.Fatal("enqueue into empty queue failed")
	}
	if q.Enqueue(p()) {
		t.Fatal("enqueue beyond capacity succeeded")
	}
	if q.Dequeue() == nil {
		t.Fatal("dequeue from non-empty queue failed")
	}
	want := queue.Stats{Accepted: 2, Rejected: 1, Dequeued: 1, Drops: 1}
	if st := q.Stats(); st != want || q.Len() != 1 || q.Cap() != 2 {
		t.Fatalf("Stats/Len/Cap = %+v/%d/%d, want %+v/1/2", st, q.Len(), q.Cap(), want)
	}
	if q.Peek() == nil {
		t.Fatal("peek at non-empty queue failed")
	}
	if vs := w.Finish().Violations; len(vs) != 0 {
		t.Fatalf("balanced queue flagged: %v", vs)
	}
}

func TestCountingQueueAuditFlagsImbalance(t *testing.T) {
	// More out than in.
	got := auditWithStats(queue.Stats{Accepted: 1, Dequeued: 5})
	if len(got) != 1 || got[0] != "ifq/conservation" {
		t.Fatalf("violations = %v, want [ifq/conservation]", got)
	}
}

func TestCountingQueueAuditFlagsDropMismatch(t *testing.T) {
	for _, tc := range []struct {
		name string
		st   queue.Stats
	}{
		{"drops without rejections", queue.Stats{Accepted: 1, Dequeued: 1, Rejected: 5, Drops: 1}},
		{"uncounted eviction", queue.Stats{Accepted: 2, Dequeued: 1, Evicted: 1, Drops: 0}},
	} {
		got := auditWithStats(tc.st)
		if len(got) != 1 || got[0] != "ifq/drop_accounting" {
			t.Errorf("%s: violations = %v, want [ifq/drop_accounting]", tc.name, got)
		}
	}
}
