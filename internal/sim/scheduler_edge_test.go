package sim

import (
	"container/heap"
	"slices"
	"testing"
	"testing/quick"
)

// TestSchedulerCancelRescheduleStorm drives the free list hard: every
// event is cancelled and replaced several times before one finally fires,
// at every heap depth from empty to deep. Exactly the survivors may fire,
// in FIFO order within each timestamp.
func TestSchedulerCancelRescheduleStorm(t *testing.T) {
	s := New()
	var fired []int
	for depth := 0; depth < 64; depth++ {
		id := depth
		var tm Timer
		for round := 0; round < 5; round++ {
			tm.Cancel()
			tm = s.Schedule(Time(depth%7)+1, func() { fired = append(fired, id) })
		}
		// Keep every 3rd timer; storm-cancel the rest.
		if depth%3 != 0 {
			tm.Cancel()
			if tm.Active() {
				t.Fatalf("timer %d active after cancel", depth)
			}
		}
	}
	s.Run()
	want := 0
	for d := 0; d < 64; d++ {
		if d%3 == 0 {
			want++
		}
	}
	if len(fired) != want {
		t.Fatalf("fired %d events, want %d survivors", len(fired), want)
	}
	seen := map[int]bool{}
	for _, id := range fired {
		if id%3 != 0 {
			t.Fatalf("cancelled timer %d fired", id)
		}
		if seen[id] {
			t.Fatalf("timer %d fired twice", id)
		}
		seen[id] = true
	}
}

// TestSchedulerStaleHandleInert pins the recycling contract: a handle kept
// past its event's firing stays inert even after the underlying node has
// been reused for a new event, so a stale Cancel can never kill a stranger.
func TestSchedulerStaleHandleInert(t *testing.T) {
	s := New()
	stale := s.Schedule(1, func() {})
	s.Run() // fires; node returns to the free list
	if stale.Active() {
		t.Fatal("handle still active after its event fired")
	}

	fired := false
	fresh := s.Schedule(1, func() { fired = true }) // reuses the node
	stale.Cancel()                                  // must not touch the new tenant
	if !fresh.Active() {
		t.Fatal("stale Cancel deactivated an unrelated timer")
	}
	s.Run()
	if !fired {
		t.Fatal("stale Cancel prevented an unrelated timer from firing")
	}
	if stale.When() != 1 {
		t.Fatalf("stale When = %v, want the original deadline 1", stale.When())
	}
}

// TestSchedulerSelfCancelDuringFire checks that a callback cancelling its
// own (already firing) timer is a harmless no-op.
func TestSchedulerSelfCancelDuringFire(t *testing.T) {
	s := New()
	var tm Timer
	count := 0
	tm = s.Schedule(1, func() {
		count++
		tm.Cancel()
	})
	s.Schedule(2, func() { count++ })
	s.Run()
	if count != 2 {
		t.Fatalf("fired %d events, want 2", count)
	}
}

// TestSchedulerFIFOTieBreakAfterRecycling re-checks the FIFO guarantee at
// equal timestamps once nodes have been through the free list: recycled
// storage must not leak old sequence numbers into the ordering.
func TestSchedulerFIFOTieBreakAfterRecycling(t *testing.T) {
	s := New()
	// Warm the free list with churn.
	for i := 0; i < 32; i++ {
		s.Schedule(Microsecond, func() {})
		s.Step()
	}
	var got []int
	for i := 0; i < 32; i++ {
		i := i
		s.Schedule(5, func() { got = append(got, i) })
	}
	// Interleave cancels to force mid-heap removals between equal keys.
	for i := 0; i < 8; i++ {
		s.Schedule(5, func() {}).Cancel()
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events reordered after recycling: %v", got)
		}
	}
}

// refHeap is a container/heap reference implementation with the same
// (time, seq) ordering contract the scheduler documents.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// cohortOp is one step of a same-timestamp-heavy program. Delay is
// quantized hard so many events share a timestamp; Chain makes the
// callback schedule a follow-up (zero or short delay, so it joins the
// running cohort or a later one); CancelVictim makes the callback cancel
// an earlier-scheduled timer, pending or already fired.
type cohortOp struct {
	Delay        uint8
	Chain        uint8
	CancelVictim uint8
}

func (o cohortOp) delay() Time      { return Time(o.Delay%16) / 4 }
func (o cohortOp) chains() bool     { return o.Chain%3 == 0 && o.Chain != 0 }
func (o cohortOp) chainDelay() Time { return Time(o.Chain%4) / 4 }

// cohortTrace is everything observable about a cohort program's
// execution: firing order, every clock advance, and the profile.
type cohortTrace struct {
	fired    []int
	hops     []Time // (from, to) pairs, flattened
	executed uint64
	now      Time
	pending  int
}

func (a cohortTrace) equal(b cohortTrace) bool {
	return slices.Equal(a.fired, b.fired) && slices.Equal(a.hops, b.hops) &&
		a.executed == b.executed && a.now == b.now && a.pending == b.pending
}

// runCohortProgram executes the program on the scheduler: RunUntil the
// deadline, then Run. It returns the trace at both points.
func runCohortProgram(ops []cohortOp, deadline Time) (mid, end cohortTrace) {
	s := New()
	var tr cohortTrace
	s.SetStepHook(func(from, to Time) { tr.hops = append(tr.hops, from, to) })
	timers := make([]Timer, len(ops))
	for i, o := range ops {
		i, o := i, o
		timers[i] = s.Schedule(o.delay(), func() {
			tr.fired = append(tr.fired, i)
			if o.CancelVictim != 0 {
				timers[int(o.CancelVictim)%len(ops)].Cancel()
			}
			if o.chains() {
				chained := i + len(ops)
				s.Schedule(o.chainDelay(), func() { tr.fired = append(tr.fired, chained) })
			}
		})
	}
	snap := func() cohortTrace {
		c := tr
		c.fired, c.hops = slices.Clone(tr.fired), slices.Clone(tr.hops)
		c.executed, c.now, c.pending = s.Executed(), s.Now(), s.Pending()
		return c
	}
	s.RunUntil(deadline)
	mid = snap()
	s.Run()
	return mid, snap()
}

// refCohortProgram executes the same program on a container/heap event
// loop with lazy cancellation: live maps each pending id to the sequence
// number of its heap entry.
func refCohortProgram(ops []cohortOp, deadline Time) (mid, end cohortTrace) {
	h := &refHeap{}
	live := map[int]uint64{}
	var now Time
	var seq uint64
	var tr cohortTrace
	schedule := func(at Time, id int) {
		heap.Push(h, refEvent{at: at, seq: seq, id: id})
		live[id] = seq
		seq++
	}
	for i, o := range ops {
		schedule(o.delay(), i)
	}
	// runTo fires every live event at or before limit.
	runTo := func(limit Time) {
		for h.Len() > 0 && (*h)[0].at <= limit {
			e := heap.Pop(h).(refEvent)
			if s, ok := live[e.id]; !ok || s != e.seq {
				continue
			}
			delete(live, e.id)
			tr.hops = append(tr.hops, now, e.at)
			now = e.at
			tr.executed++
			tr.fired = append(tr.fired, e.id)
			if e.id >= len(ops) {
				continue
			}
			o := ops[e.id]
			if o.CancelVictim != 0 {
				delete(live, int(o.CancelVictim)%len(ops))
			}
			if o.chains() {
				schedule(now+o.chainDelay(), e.id+len(ops))
			}
		}
	}
	snap := func() cohortTrace {
		c := tr
		c.fired, c.hops = slices.Clone(tr.fired), slices.Clone(tr.hops)
		c.now, c.pending = now, len(live)
		return c
	}
	runTo(deadline)
	if now < deadline {
		now = deadline
	}
	mid = snap()
	runTo(Forever)
	return mid, snap()
}

// TestSchedulerMatchesReferenceHeap is the migration property test: for
// arbitrary interleavings of schedule and cancel operations, the inlined
// heap pops events in exactly the order the container/heap implementation
// it replaced would have. The second half runs fat same-timestamp cohorts,
// with callbacks that chain zero- and short-delay reschedules and cancel
// earlier timers, and checks the clock and profile too, both at a
// mid-program RunUntil deadline and after Run.
func TestSchedulerMatchesReferenceHeap(t *testing.T) {
	type op struct {
		Delay    uint16
		CancelAt uint8 // cancel the op at index %len when nonzero
	}
	f := func(ops []op) bool {
		s := New()
		ref := &refHeap{}
		cancelledRef := map[int]bool{}
		var seq uint64
		var gotOrder []int
		timers := make([]Timer, len(ops))
		for i, o := range ops {
			i := i
			dt := Time(o.Delay) / 50
			timers[i] = s.Schedule(dt, func() { gotOrder = append(gotOrder, i) })
			heap.Push(ref, refEvent{at: dt, seq: seq, id: i})
			seq++
			if o.CancelAt != 0 && len(ops) > 0 {
				victim := int(o.CancelAt) % (i + 1)
				timers[victim].Cancel()
				cancelledRef[victim] = true
			}
		}
		var wantOrder []int
		for ref.Len() > 0 {
			e := heap.Pop(ref).(refEvent)
			if !cancelledRef[e.id] {
				wantOrder = append(wantOrder, e.id)
			}
		}
		s.Run()
		if len(gotOrder) != len(wantOrder) {
			return false
		}
		for i := range gotOrder {
			if gotOrder[i] != wantOrder[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}

	cohorts := func(ops []cohortOp, deadline8 uint8) bool {
		if len(ops) == 0 {
			return true
		}
		deadline := Time(deadline8%20) / 8
		gotMid, gotEnd := runCohortProgram(ops, deadline)
		wantMid, wantEnd := refCohortProgram(ops, deadline)
		return gotMid.equal(wantMid) && gotEnd.equal(wantEnd)
	}
	if err := quick.Check(cohorts, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerArgCallback covers the closure-free scheduling variant used
// by the PHY hot path.
func TestSchedulerArgCallback(t *testing.T) {
	s := New()
	var got []any
	fn := func(a any) { got = append(got, a) }
	s.ScheduleArgKind(KindPHY, 2, fn, "second")
	s.ScheduleArgKind(KindPHY, 1, fn, "first")
	tm := s.ScheduleArgKind(KindPHY, 3, fn, "cancelled")
	tm.Cancel()
	s.Run()
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("arg callbacks = %v", got)
	}
	if by := s.ExecutedByKind(); by[KindPHY] != 2 {
		t.Fatalf("KindPHY executed = %d, want 2", by[KindPHY])
	}

	defer func() {
		if recover() == nil {
			t.Fatal("nil arg callback did not panic")
		}
	}()
	s.ScheduleArgKind(KindPHY, 1, nil, "x")
}
