package sim

import "testing"

// BenchmarkSchedulerHotPath measures the steady-state schedule/fire loop
// with a realistically deep pending queue (512 outstanding events). This is
// the inner loop of every simulation run; it must not allocate.
func BenchmarkSchedulerHotPath(b *testing.B) {
	s := New()
	fn := func() {}
	for i := 0; i < 512; i++ {
		s.Schedule(Time(i)*Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(Microsecond, fn)
		s.Step()
	}
}

// BenchmarkSchedulerCancelReschedule measures the cancel-then-reschedule
// churn typical of MAC timers (ACK timeouts, NAV wakeups): every scheduled
// event is cancelled and replaced before it can fire.
func BenchmarkSchedulerCancelReschedule(b *testing.B) {
	s := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := s.Schedule(Microsecond, fn)
		tm.Cancel()
		s.Schedule(Microsecond, fn)
		s.Step()
	}
}

// BenchmarkSchedulerFanout measures one broadcast frame's fan-out on a
// dense highway: the queue holds ~11 000 pending timers spread over 1 s
// (the pending high-water mark of a 1000-vehicle 802.11 run), and each op
// schedules 224 first-bit arrivals within 3 µs of now, then fires them.
// The background timers re-arm themselves 1 s out, so the pending set
// stays the same size however long the benchmark runs.
func BenchmarkSchedulerFanout(b *testing.B) {
	const (
		background = 11000
		fanout     = 224
	)
	s := New()
	rng := NewRNG(1)
	var rearm func()
	rearm = func() { s.Schedule(Second, rearm) }
	for i := 0; i < background; i++ {
		s.Schedule(rng.Duration(0, Second), rearm)
	}
	arrive := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < fanout; k++ {
			s.Schedule(Microsecond+Time(k)*8*Nanosecond, arrive)
		}
		s.RunUntil(s.Now() + 3*Microsecond)
	}
}

// BenchmarkSchedulerPaperScale measures the queue at the paper's scale:
// trial 3's pending high-water mark is 36 events, spread from slot times
// to retransmission timeouts. Each op schedules one event at a delay from
// that range and fires the earliest; every fourth op also re-arms a far
// timeout, as a TCP sender does on each ACK, which leaves a cancelled
// entry behind. The pending set stays at 36. It must not allocate.
func BenchmarkSchedulerPaperScale(b *testing.B) {
	delays := [...]Time{20 * Microsecond, 50 * Microsecond, 300 * Microsecond,
		4 * Millisecond, 10 * Millisecond, 100 * Millisecond, Second}
	var pick [64]Time
	rng := NewRNG(1)
	for i := range pick {
		pick[i] = delays[rng.Intn(len(delays))]
	}
	s := New()
	fn := func() {}
	for i := 0; i < 35; i++ {
		s.Schedule(pick[i], fn)
	}
	rto := s.Schedule(Second, fn)
	op := func(i int) {
		if i%4 == 0 {
			rto.Cancel()
			rto = s.Schedule(Second, fn)
		}
		s.Schedule(pick[i%len(pick)], fn)
		s.Step()
	}
	for i := 0; i < 10000; i++ { // fill the node and chunk pools
		op(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
	if s.Pending() != 36 {
		b.Fatalf("pending = %d, want 36", s.Pending())
	}
}
