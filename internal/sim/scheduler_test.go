package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSchedulerZeroValueUsable(t *testing.T) {
	var s Scheduler
	fired := false
	s.Schedule(1, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("event did not fire")
	}
	if s.Now() != 1 {
		t.Fatalf("clock = %v, want 1s", s.Now())
	}
}

func TestSchedulerOrdering(t *testing.T) {
	s := New()
	var got []int
	s.Schedule(3, func() { got = append(got, 3) })
	s.Schedule(1, func() { got = append(got, 1) })
	s.Schedule(2, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSchedulerFIFOTieBreak(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events reordered: %v", got)
		}
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := New()
	var times []Time
	s.Schedule(1, func() {
		times = append(times, s.Now())
		s.Schedule(1, func() {
			times = append(times, s.Now())
		})
	})
	s.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Fatalf("nested schedule times = %v, want [1 2]", times)
	}
}

func TestSchedulerZeroDelayRunsAfterCurrentTimeEvents(t *testing.T) {
	s := New()
	var got []string
	s.Schedule(1, func() {
		s.Schedule(0, func() { got = append(got, "zero") })
		got = append(got, "first")
	})
	s.Schedule(1, func() { got = append(got, "second") })
	s.Run()
	want := []string{"first", "second", "zero"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := New()
	fired := false
	tm := s.Schedule(1, func() { fired = true })
	if !tm.Active() {
		t.Fatal("timer should be active before firing")
	}
	tm.Cancel()
	if tm.Active() {
		t.Fatal("timer should be inactive after cancel")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
	tm.Cancel() // idempotent
}

func TestSchedulerCancelZeroValue(t *testing.T) {
	var tm Timer
	tm.Cancel() // must not panic
	if tm.Active() {
		t.Fatal("zero-value timer cannot be active")
	}
}

func TestSchedulerCancelFromEarlierEvent(t *testing.T) {
	s := New()
	fired := false
	tm := s.Schedule(2, func() { fired = true })
	s.Schedule(1, func() { tm.Cancel() })
	s.Run()
	if fired {
		t.Fatal("timer cancelled at t=1 still fired at t=2")
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := New()
	var fired []Time
	for _, d := range []Time{1, 2, 3, 4} {
		d := d
		s.Schedule(d, func() { fired = append(fired, d) })
	}
	s.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 1 and 2 only", fired)
	}
	if s.Now() != 2.5 {
		t.Fatalf("clock = %v, want 2.5 (advanced to deadline)", s.Now())
	}
	s.RunUntil(10)
	if len(fired) != 4 {
		t.Fatalf("fired %v, want all four after second RunUntil", fired)
	}
}

func TestSchedulerStop(t *testing.T) {
	s := New()
	count := 0
	s.Schedule(1, func() { count++; s.Stop() })
	s.Schedule(2, func() { count++ })
	s.Run()
	if count != 1 {
		t.Fatalf("events after Stop fired; count = %d", count)
	}
	if !s.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
}

func TestSchedulerPanicsOnPastEvent(t *testing.T) {
	s := New()
	s.Schedule(5, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At in the past did not panic")
		}
	}()
	s.At(1, func() {})
}

func TestSchedulerPanicsOnNegativeDelay(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	s.Schedule(-1, func() {})
}

func TestSchedulerPanicsOnNaN(t *testing.T) {
	nan := Time(math.NaN())
	for name, call := range map[string]func(s *Scheduler){
		"Schedule": func(s *Scheduler) { s.Schedule(nan, func() {}) },
		"At":       func(s *Scheduler) { s.At(nan, func() {}) },
		// A NaN deadline compares later than no event, so an unchecked
		// RunUntil would never stop while a periodic timer is pending
		// (here it stops after 1000 ticks, so the test fails, not hangs).
		"RunUntil": func(s *Scheduler) {
			var tick func()
			tick = func() {
				if s.Now() >= 1000 {
					s.Stop()
				}
				s.Schedule(1, tick)
			}
			s.Schedule(1, tick)
			s.RunUntil(nan)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s with NaN did not panic", name)
				}
			}()
			call(New())
		}()
	}
}

func TestSchedulerPendingAndExecuted(t *testing.T) {
	s := New()
	s.Schedule(1, func() {})
	s.Schedule(2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after Run, want 0", s.Pending())
	}
	if s.Executed() != 2 {
		t.Fatalf("Executed = %d, want 2", s.Executed())
	}
}

// Property: events always fire in non-decreasing time order, whatever the
// insertion order.
func TestSchedulerMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New()
		var fired []Time
		for _, d := range delays {
			dt := Time(d) / 100
			s.Schedule(dt, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: with interleaved schedule/cancel operations, exactly the
// non-cancelled events fire.
func TestSchedulerCancelProperty(t *testing.T) {
	f := func(ops []bool) bool {
		s := New()
		fired := map[int]bool{}
		var timers []Timer
		for i, cancel := range ops {
			i := i
			tm := s.Schedule(Time(i%7)+1, func() { fired[i] = true })
			timers = append(timers, tm)
			if cancel {
				tm.Cancel()
			}
		}
		s.Run()
		for i, cancel := range ops {
			if cancel == fired[i] {
				return false
			}
			if timers[i].Active() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	if got := Time(1.5).String(); got != "1.500000s" {
		t.Fatalf("Time.String = %q", got)
	}
	if got := Time(2.5).Seconds(); got != 2.5 {
		t.Fatalf("Seconds = %v", got)
	}
}

func BenchmarkSchedulerChurn(b *testing.B) {
	s := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Schedule(1, func() {})
		s.Step()
	}
}

func TestCancelRemovesFromHeap(t *testing.T) {
	s := New()
	var timers []Timer
	for i := 0; i < 8; i++ {
		timers = append(timers, s.Schedule(Time(i+1), func() {}))
	}
	if s.Pending() != 8 {
		t.Fatalf("Pending = %d, want 8", s.Pending())
	}
	timers[0].Cancel()
	timers[3].Cancel()
	timers[7].Cancel()
	if s.Pending() != 5 {
		t.Fatalf("Pending = %d after 3 cancels, want 5 (a cancelled event stops counting at once)", s.Pending())
	}
	s.Run()
	if s.Executed() != 5 {
		t.Fatalf("Executed = %d, want 5", s.Executed())
	}
}

func TestExecutedByKind(t *testing.T) {
	s := New()
	s.ScheduleKind(KindMAC, 1, func() {})
	s.ScheduleKind(KindMAC, 2, func() {})
	s.ScheduleKind(KindPHY, 3, func() {})
	s.AtKind(KindTransport, 4, func() {})
	s.Schedule(5, func() {}) // untagged -> KindOther
	s.Run()
	by := s.ExecutedByKind()
	if by[KindMAC] != 2 || by[KindPHY] != 1 || by[KindTransport] != 1 || by[KindOther] != 1 {
		t.Fatalf("ExecutedByKind = %v", by)
	}
	if KindMAC.String() != "mac" || KindOther.String() != "other" {
		t.Fatalf("kind names: %v %v", KindMAC, KindOther)
	}
}

func TestMaxPending(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		s.Schedule(Time(i+1), func() {})
	}
	if s.MaxPending() != 5 {
		t.Fatalf("MaxPending = %d, want 5", s.MaxPending())
	}
	s.Run()
	if s.MaxPending() != 5 {
		t.Fatalf("MaxPending after run = %d, want 5 (high-water, not current)", s.MaxPending())
	}
}
