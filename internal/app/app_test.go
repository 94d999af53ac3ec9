package app

import (
	"math"
	"testing"

	"vanetsim/internal/sim"
)

// countingSender records SendBytes calls.
type countingSender struct {
	calls []int
}

func (c *countingSender) SendBytes(n int) { c.calls = append(c.calls, n) }

func TestCBRRateAndInterval(t *testing.T) {
	s := sim.New()
	tr := &countingSender{}
	// 1,000 bytes at 100 kb/s -> one write every 80 ms.
	c := NewCBR(s, tr, 1000, 1e5)
	if math.Abs(float64(c.Interval())-0.08) > 1e-12 {
		t.Fatalf("interval = %v, want 80 ms", c.Interval())
	}
	c.Start()
	s.RunUntil(1)
	// Writes at t=0, 0.08, ..., 0.96 -> 13 ticks.
	if len(tr.calls) != 13 {
		t.Fatalf("writes in 1 s = %d, want 13", len(tr.calls))
	}
	for _, n := range tr.calls {
		if n != 1000 {
			t.Fatalf("write size = %d", n)
		}
	}
	if c.Ticks() != 13 {
		t.Fatalf("Ticks = %d", c.Ticks())
	}
}

func TestCBRStartIdempotent(t *testing.T) {
	s := sim.New()
	tr := &countingSender{}
	c := NewCBR(s, tr, 100, 1e5)
	c.Start()
	c.Start() // second start must not double the rate
	s.RunUntil(0.1)
	first := len(tr.calls)
	s.RunUntil(0.2)
	if len(tr.calls) >= 2*first+2 {
		t.Fatalf("double-started CBR: %d writes", len(tr.calls))
	}
	if !c.Running() {
		t.Fatal("should be running")
	}
}

func TestCBRStopAndRestart(t *testing.T) {
	s := sim.New()
	tr := &countingSender{}
	c := NewCBR(s, tr, 1000, 1e6) // 8 ms interval
	c.Start()
	s.RunUntil(0.1)
	c.Stop()
	c.Stop() // idempotent
	n := len(tr.calls)
	s.RunUntil(0.5)
	if len(tr.calls) != n {
		t.Fatal("writes after Stop")
	}
	c.Start()
	s.RunUntil(0.6)
	if len(tr.calls) <= n {
		t.Fatal("no writes after restart")
	}
}

func TestCBRPanicsOnBadConfig(t *testing.T) {
	s := sim.New()
	for name, fn := range map[string]func(){
		"zero size": func() { NewCBR(s, &countingSender{}, 0, 1e5) },
		"zero rate": func() { NewCBR(s, &countingSender{}, 100, 0) },
	} {
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
