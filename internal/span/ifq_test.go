package span_test

// Interface-queue spans are recorded by the queue hook scenario.World
// installs when spans are armed; this test drives a node's queue directly.

import (
	"testing"

	"vanetsim/internal/geom"
	"vanetsim/internal/packet"
	"vanetsim/internal/scenario"
	"vanetsim/internal/span"
)

func TestTapQueueRecordsEnqDeqAndDrops(t *testing.T) {
	cfg := scenario.DefaultStackConfig(scenario.MACTDMA)
	cfg.Spans = true
	cfg.Queue, cfg.QueueCap = scenario.QueueDropTail, 1
	w := scenario.NewWorld(cfg, 1)
	q := w.AddNode(4, func() geom.Vec2 { return geom.V(0, 0) }).Ifq
	p1 := &packet.Packet{UID: 1, Type: packet.TypeEBL, Size: 10}
	p2 := &packet.Packet{UID: 2, Type: packet.TypeEBL, Size: 10}
	if !q.Enqueue(p1) {
		t.Fatal("first enqueue rejected")
	}
	if q.Enqueue(p2) {
		t.Fatal("second enqueue accepted past capacity")
	}
	if got := q.Dequeue(); got != p1 {
		t.Fatalf("dequeued %v", got)
	}
	evs := w.Finish().Spans
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3: %v", len(evs), evs)
	}
	if evs[0].Op != span.OpEnq || evs[1].Op != span.OpIfqDrop || evs[1].Cause != span.CauseIfqFull || evs[2].Op != span.OpDeq {
		t.Fatalf("bad op sequence: %v", evs)
	}
	if evs[0].UID != 1 || evs[1].UID != 2 || evs[2].UID != 1 || evs[0].Node != 4 {
		t.Fatalf("bad attribution: %v", evs)
	}
}
