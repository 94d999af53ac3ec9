package queue

import (
	"testing"

	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
)

func newRED(t *testing.T) *RED {
	t.Helper()
	return NewRED(50, DefaultREDConfig(), sim.NewRNG(42), nil)
}

func TestREDNoDropsBelowMinThresh(t *testing.T) {
	var f packet.Factory
	q := newRED(t)
	// Keep instantaneous occupancy at ~2: enqueue/dequeue alternating.
	for i := 0; i < 2000; i++ {
		if !q.Enqueue(mkData(&f)) {
			t.Fatalf("drop at occupancy %d, avg %v", q.Len(), q.AvgQueue())
		}
		if q.Len() > 2 {
			q.Dequeue()
		}
	}
	if q.Stats().Drops != 0 {
		t.Fatalf("drops = %d below min threshold", q.Stats().Drops)
	}
}

func TestREDDropsAllAboveMaxThresh(t *testing.T) {
	var f packet.Factory
	q := newRED(t)
	// Fill to 20 (> maxthresh 15) and hold it there long enough for the
	// slow EWMA (w=0.002) to catch up.
	for q.Len() < 20 {
		q.Enqueue(mkData(&f))
	}
	for i := 0; i < 3000; i++ {
		q.Enqueue(mkData(&f))
		if q.Len() > 20 {
			q.Dequeue()
		}
	}
	if q.AvgQueue() < q.cfg.MaxThresh {
		t.Fatalf("avg = %v never exceeded maxthresh", q.AvgQueue())
	}
	before := q.Stats().Drops
	for i := 0; i < 50; i++ {
		if q.Enqueue(mkData(&f)) {
			t.Fatalf("enqueue accepted with avg %v above maxthresh", q.AvgQueue())
		}
	}
	if q.Stats().Drops != before+50 {
		t.Fatal("drops not counted")
	}
}

func TestREDProbabilisticRegion(t *testing.T) {
	var f packet.Factory
	q := newRED(t)
	// Hold occupancy at 10 (between thresholds) until avg converges.
	for q.Len() < 10 {
		q.Enqueue(mkData(&f))
	}
	for i := 0; i < 5000; i++ {
		if q.Enqueue(mkData(&f)) && q.Len() > 10 {
			q.Dequeue()
		}
	}
	accepted, dropped := 0, 0
	for i := 0; i < 2000; i++ {
		if q.Enqueue(mkData(&f)) {
			accepted++
			q.Dequeue()
		} else {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("no early drops in the probabilistic region")
	}
	if accepted == 0 {
		t.Fatal("everything dropped in the probabilistic region")
	}
	rate := float64(dropped) / float64(dropped+accepted)
	// avg ~10 -> pb ~ maxP/2 = 0.05; count correction raises it somewhat.
	if rate < 0.01 || rate > 0.30 {
		t.Fatalf("early-drop rate = %v, want a moderate fraction", rate)
	}
}

func TestREDControlPacketsBypassEarlyDrop(t *testing.T) {
	var f packet.Factory
	q := newRED(t)
	for q.Len() < 20 {
		q.Enqueue(mkData(&f))
	}
	for i := 0; i < 3000; i++ {
		q.Enqueue(mkData(&f))
		if q.Len() > 20 {
			q.Dequeue()
		}
	}
	// avg is above maxthresh now; a routing packet must still get in.
	if !q.Enqueue(mkCtrl(&f)) {
		t.Fatal("control packet early-dropped")
	}
}

func TestREDHardCapacity(t *testing.T) {
	var f packet.Factory
	q := NewRED(5, DefaultREDConfig(), sim.NewRNG(1), nil)
	for i := 0; i < 5; i++ {
		q.Enqueue(mkCtrl(&f)) // control bypasses early drop
	}
	if q.Enqueue(mkCtrl(&f)) {
		t.Fatal("hard capacity not enforced")
	}
	if q.Len() != 5 || q.Cap() != 5 {
		t.Fatalf("len=%d cap=%d", q.Len(), q.Cap())
	}
}

func TestREDFIFOAndPeek(t *testing.T) {
	var f packet.Factory
	q := newRED(t)
	a, b := mkData(&f), mkData(&f)
	q.Enqueue(a)
	q.Enqueue(b)
	if q.Peek() != a || q.Dequeue() != a || q.Dequeue() != b || q.Dequeue() != nil {
		t.Fatal("FIFO order violated")
	}
}

func TestREDValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	cases := map[string]func(){
		"zero cap":   func() { NewRED(0, DefaultREDConfig(), rng, nil) },
		"nil rng":    func() { NewRED(10, DefaultREDConfig(), nil, nil) },
		"bad thresh": func() { NewRED(10, REDConfig{MinThresh: 5, MaxThresh: 5, Weight: 0.002, MaxP: 0.1}, rng, nil) },
		"bad weight": func() { NewRED(10, REDConfig{MinThresh: 5, MaxThresh: 15, Weight: 0, MaxP: 0.1}, rng, nil) },
		"bad maxp":   func() { NewRED(10, REDConfig{MinThresh: 5, MaxThresh: 15, Weight: 0.002, MaxP: 0}, rng, nil) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
