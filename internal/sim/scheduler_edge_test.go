package sim

import (
	"container/heap"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// TestSchedulerCancelRescheduleStorm drives the free list hard: every
// event is cancelled and replaced several times before one finally fires,
// at every queue depth from empty to deep. Exactly the survivors may fire,
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
	// Interleave cancels to leave dead entries between equal keys.
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

// refOp is one step of a schedule-and-cancel program: schedule an event
// Delay/50 s out, then, when CancelAt is nonzero, cancel an event
// scheduled so far.
type refOp struct {
	Delay    uint16
	CancelAt uint8 // cancel the op at index %(i+1) when nonzero
}

// matchesReference runs a schedule-and-cancel program on the scheduler
// and on the container/heap reference and reports whether the survivors
// fire in the same order.
func matchesReference(ops []refOp) bool {
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
		if o.CancelAt != 0 {
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
	return slices.Equal(gotOrder, wantOrder)
}

// matchesReferenceCohorts runs a cohort program on the scheduler and on
// the reference and compares their traces at the deadline and at the end.
func matchesReferenceCohorts(ops []cohortOp, deadline8 uint8) bool {
	if len(ops) == 0 {
		return true
	}
	deadline := Time(deadline8%20) / 8
	gotMid, gotEnd := runCohortProgram(ops, deadline)
	wantMid, wantEnd := refCohortProgram(ops, deadline)
	return gotMid.equal(wantMid) && gotEnd.equal(wantEnd)
}

// TestSchedulerMatchesReferenceHeap is the migration property test: for
// arbitrary interleavings of schedule and cancel operations, the radix
// queue fires events in exactly the order a container/heap event loop on
// (time, sequence) does. The second half runs fat same-timestamp cohorts,
// with callbacks that chain zero- and short-delay reschedules and cancel
// earlier timers, and checks the clock and profile too, both at a
// mid-program RunUntil deadline and after Run.
func TestSchedulerMatchesReferenceHeap(t *testing.T) {
	if err := quick.Check(matchesReference, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(matchesReferenceCohorts, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// FuzzSchedulerMatchesReference drives both of
// TestSchedulerMatchesReferenceHeap's program generators from fuzz bytes:
// three bytes make one op of each program, and the first byte is the
// cohort program's RunUntil deadline.
func FuzzSchedulerMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 1, 0, 0, 1, 0, 0, 1, 3, 2})
	f.Add([]byte{12, 0, 3, 1, 4, 6, 0, 4, 0, 2, 8, 3, 0, 8, 9, 5, 255, 255, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		deadline, body := data[0], data[1:]
		var ops []refOp
		var cohort []cohortOp
		for ; len(body) >= 3; body = body[3:] {
			ops = append(ops, refOp{Delay: uint16(body[0])<<8 | uint16(body[1]), CancelAt: body[2]})
			cohort = append(cohort, cohortOp{Delay: body[0], Chain: body[1], CancelVictim: body[2]})
		}
		if !matchesReference(ops) {
			t.Fatalf("schedule/cancel program %v fires out of the reference's order", ops)
		}
		if !matchesReferenceCohorts(cohort, deadline) {
			t.Fatalf("cohort program %v (deadline byte %d) departs from the reference", cohort, deadline)
		}
	})
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

// TestSchedulerRunUntilLeavesRoomBeforeNext pins the deadline edge: a
// RunUntil that stops short of the next event must not commit the queue
// past it, so an event scheduled between the deadline and that next event
// still fires first.
func TestSchedulerRunUntilLeavesRoomBeforeNext(t *testing.T) {
	for _, c := range []struct{ d, t, e Time }{
		{2, 2, 3},
		{2, 2.5, 3},
		{2, 2.999999, 3},
		{1e-9, 1e-9, 1},
		{0, 0, 8},
		{3.9, 3.95, 4.1}, // the next event's exponent differs from the deadline's
	} {
		s := New()
		var got []string
		s.At(c.e, func() { got = append(got, "e") })
		s.RunUntil(c.d)
		if len(got) != 0 || s.Now() != c.d {
			t.Fatalf("%+v: RunUntil fired %v, clock %v", c, got, s.Now())
		}
		s.At(c.t, func() { got = append(got, "t") })
		s.Run()
		if !slices.Equal(got, []string{"t", "e"}) {
			t.Errorf("%+v: fired %v, want [t e]", c, got)
		}
	}
	// The same with a cancelled event between the deadline's past and the
	// next live one: dropping it may not move the queue beyond the deadline.
	s := New()
	var got []string
	s.At(1.5, func() { got = append(got, "dead") }).Cancel()
	s.At(3, func() { got = append(got, "e") })
	s.RunUntil(2)
	s.At(2.5, func() { got = append(got, "t") })
	s.Run()
	if !slices.Equal(got, []string{"t", "e"}) {
		t.Errorf("after a dropped cancel: fired %v, want [t e]", got)
	}
}

// TestSchedulerInfiniteEvent pins +Inf, the one time later than Forever:
// RunUntil(Forever) leaves it pending, and Step still fires it.
func TestSchedulerInfiniteEvent(t *testing.T) {
	inf := Time(math.Inf(1))
	s := New()
	fired := 0
	s.At(inf, func() { fired++ })
	s.At(1, func() {})
	s.RunUntil(Forever)
	if fired != 0 || s.Pending() != 1 || s.Now() != Forever {
		t.Fatalf("RunUntil(Forever): fired %d, pending %d, clock %v", fired, s.Pending(), s.Now())
	}
	if !s.Step() || fired != 1 || s.Now() != inf {
		t.Fatalf("Step: fired %d, clock %v, want the +Inf event", fired, s.Now())
	}
	if s.Step() {
		t.Fatal("Step fired from an empty queue")
	}

	s = New()
	s.At(inf, func() { fired++ })
	s.At(inf, func() { fired += 10 })
	if !s.Step() || fired != 2 {
		t.Fatalf("Step from zero: fired %d, want the first +Inf event", fired)
	}
	if !s.Step() || fired != 12 {
		t.Fatalf("second Step: fired %d, want the second +Inf event", fired)
	}
}

// TestSchedulerNegativeZero pins At(-0): -0 is the time 0, so it fires
// with the events at +0 in scheduling order, and the clock never reads -0.
func TestSchedulerNegativeZero(t *testing.T) {
	negZero := Time(math.Copysign(0, -1))
	s := New()
	var got []int
	s.At(0, func() { got = append(got, 0) })
	s.At(negZero, func() { got = append(got, 1) })
	s.At(1e-300, func() { got = append(got, 3) })
	s.At(0, func() { got = append(got, 2) })
	s.Step()
	s.Step()
	if math.Signbit(float64(s.Now())) {
		t.Fatalf("clock reads %v after firing At(-0)", s.Now())
	}
	s.Run()
	if !slices.Equal(got, []int{0, 1, 2, 3}) {
		t.Fatalf("fired %v, want [0 1 2 3]", got)
	}
	s = New()
	s.RunUntil(negZero)
	s.At(0, func() { got = append(got, 4) })
	s.RunUntil(negZero)
	if got[len(got)-1] != 4 {
		t.Fatalf("RunUntil(-0) did not fire an event at 0: %v", got)
	}
}

// TestSchedulerEmptiedQueueRestarts checks that a queue emptied by a
// RunUntil past its last event still orders what comes next, from the
// advanced clock.
func TestSchedulerEmptiedQueueRestarts(t *testing.T) {
	s := New()
	s.At(1, func() {})
	s.At(7, func() {}).Cancel()
	s.RunUntil(100)
	var got []Time
	for _, at := range []Time{130, 100, 101, 100} {
		s.At(at, func() { got = append(got, s.Now()) })
	}
	s.Run()
	if !slices.Equal(got, []Time{100, 100, 101, 130}) || s.queued() != 0 {
		t.Fatalf("fired at %v with %d entries left", got, s.queued())
	}
}

// TestSchedulerFarTimerStormBounded re-arms one far timer (a TCP
// retransmission timeout, say) thousands of times while near events keep
// the clock moving. Cancellation is lazy, so each re-arm leaves a dead
// entry behind; compaction must keep the queued entries within a chunk or
// so of the live ones, and the survivor must still fire.
func TestSchedulerFarTimerStormBounded(t *testing.T) {
	s := New()
	fired := 0
	far := s.Schedule(1000, func() { fired++ })
	worst := 0
	for i := 0; i < 20000; i++ {
		far.Cancel()
		far = s.Schedule(1000, func() { fired++ })
		if i%7 == 0 {
			s.Schedule(Microsecond, func() {})
			s.Step()
		}
		worst = max(worst, s.queued())
	}
	if limit := s.Pending() + chunkLen + 1; worst > limit {
		t.Fatalf("queue held %d entries for %d pending events, want at most %d", worst, s.Pending(), limit)
	}
	s.Run()
	if fired != 1 || s.queued() != 0 {
		t.Fatalf("fired %d far timers with %d entries left, want 1 and 0", fired, s.queued())
	}
}
