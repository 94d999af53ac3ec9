package check

import (
	"strings"
	"testing"

	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
)

func TestNilRegistryIsDisabled(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	r.Violationf(1, "phy", "x", "should be dropped")
	if r.Violations() != nil || r.Total() != 0 || r.Err() != nil {
		t.Fatal("nil registry recorded state")
	}
}

func TestRegistryRecordsAndCaps(t *testing.T) {
	r := New()
	if !r.Enabled() {
		t.Fatal("armed registry reports disabled")
	}
	for i := 0; i < maxStored+10; i++ {
		r.Violationf(sim.Time(i), "phy", "arrival_conservation", "violation %d", i)
	}
	if got := len(r.Violations()); got != maxStored {
		t.Fatalf("stored %d violations, want cap %d", got, maxStored)
	}
	if r.Total() != maxStored+10 {
		t.Fatalf("Total = %d, want %d", r.Total(), maxStored+10)
	}
	err := r.Err()
	if err == nil {
		t.Fatal("Err() nil with violations recorded")
	}
	if !strings.Contains(err.Error(), "violation 0") {
		t.Fatalf("Err() should cite the first violation: %v", err)
	}
	v := r.Violations()[0]
	if v.Layer != "phy" || v.Name != "arrival_conservation" || v.At != 0 {
		t.Fatalf("violation fields = %+v", v)
	}
	if !strings.Contains(v.Error(), "phy/arrival_conservation") {
		t.Fatalf("Error() = %q", v.Error())
	}
}

func TestCleanRegistryErrNil(t *testing.T) {
	if err := New().Err(); err != nil {
		t.Fatalf("clean registry Err = %v", err)
	}
}

func TestMonotonicHook(t *testing.T) {
	r := New()
	hook := Monotonic(r)
	hook(1.0, 1.5) // forward: fine
	hook(1.5, 1.5) // equal times: fine (zero-delay events are legal)
	if r.Total() != 0 {
		t.Fatalf("forward steps flagged: %v", r.Violations())
	}
	hook(2.0, 1.0) // backwards
	if r.Total() != 1 {
		t.Fatalf("backwards step not flagged, total = %d", r.Total())
	}
	if v := r.Violations()[0]; v.Layer != "sched" || v.Name != "time_monotone" {
		t.Fatalf("violation = %+v", v)
	}
}

func TestSlotGuard(t *testing.T) {
	r := New()
	g := NewSlotGuard(r, 0.1)
	g.Transmitting(0.05, 1, 101) // slot 0
	g.Transmitting(0.15, 2, 102) // slot 1: different slot, fine
	g.Transmitting(0.17, 2, 103) // slot 1 again, same owner: fine
	if r.Total() != 0 {
		t.Fatalf("legal schedule flagged: %v", r.Violations())
	}
	g.Transmitting(0.19, 3, 104) // slot 1, second owner: violation
	if r.Total() != 1 {
		t.Fatalf("slot collision not flagged, total = %d", r.Total())
	}
	if v := r.Violations()[0]; v.Layer != "mac/tdma" || v.Name != "slot_exclusive" {
		t.Fatalf("violation = %+v", v)
	}
}

// Regression: TDMA slot starts are computed as offset + n·frame in
// float64, and dividing such a sum back by the slot duration can land a
// hair under the integer slot number (trial 1's node 5 at t = 11·slotDur
// binned into slot 10, "colliding" with node 4). Boundary-exact starts
// must never be flagged.
func TestSlotGuardBoundaryRounding(t *testing.T) {
	r := New()
	slotDur := sim.Time(0.012286) // trial-1 TDMA slot: 1 Mb/s, 1528-byte frame
	g := NewSlotGuard(r, slotDur)
	// Slot starts for nodes 4 and 5 of a 6-node frame, computed the way
	// mactdma.Schedule.NextSlotStart computes them.
	frame := sim.Time(6) * slotDur
	g.Transmitting(sim.Time(4)*slotDur+frame, 4, 1) // slot 10
	g.Transmitting(sim.Time(5)*slotDur+frame, 5, 2) // slot 11
	if r.Total() != 0 {
		t.Fatalf("boundary-exact slot starts flagged: %v", r.Violations())
	}
}

func TestSlotGuardNilSafe(t *testing.T) {
	var g *SlotGuard
	g.Transmitting(1, 1, 1) // must not panic
}

func TestNewSlotGuardRejectsBadDuration(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero slot duration did not panic")
		}
	}()
	NewSlotGuard(New(), 0)
}

func TestRouteGuardUseRoute(t *testing.T) {
	cases := []struct {
		name    string
		valid   bool
		expiry  sim.Time
		nextHop packet.NodeID
		hops    int
		bad     bool
	}{
		{"healthy", true, 100, 2, 1, false},
		{"invalidated", false, 100, 2, 1, true},
		{"expired", true, 5, 2, 1, true},
		{"no-next-hop", true, 100, packet.None, 1, true},
		{"zero-hops", true, 100, 2, 0, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := New()
			g := NewRouteGuard(r)
			g.UseRoute(10, 7, c.valid, c.expiry, c.nextHop, c.hops)
			if got := r.Total() > 0; got != c.bad {
				t.Fatalf("flagged = %v, want %v (%v)", got, c.bad, r.Violations())
			}
		})
	}
}

func TestRouteGuardForwardConservesHopBudget(t *testing.T) {
	r := New()
	g := NewRouteGuard(r)
	g.Forward(1, 42, 31, 1) // first hop of a TTL-32 datagram
	g.Forward(2, 42, 30, 2) // next hop: one TTL unit became one forward
	g.Forward(3, 42, 31, 1) // MAC-retry/salvage copy re-forwarded: same budget
	if r.Total() != 0 {
		t.Fatalf("legal path flagged: %v", r.Violations())
	}
	g.Forward(4, 42, 31, 2) // TTL grew without a matching hop: corruption
	if r.Total() != 1 {
		t.Fatalf("drifting hop budget not flagged, total = %d", r.Total())
	}
	if v := r.Violations()[0]; v.Layer != "aodv" || v.Name != "hop_budget" {
		t.Fatalf("violation = %+v", v)
	}
}

func TestRouteGuardWindowEviction(t *testing.T) {
	r := New()
	g := NewRouteGuard(r)
	g.Forward(0, 1, 10, 1)
	// Push uid 1 out of the FIFO window entirely.
	for i := uint64(2); i < routeGuardWindow+2; i++ {
		g.Forward(0, i, 10, 1)
	}
	// uid 1 was evicted: a drifted budget is unobservable, and the entry is
	// simply re-admitted.
	g.Forward(1, 1, 20, 1)
	if r.Total() != 0 {
		t.Fatalf("evicted uid still tracked: %v", r.Violations())
	}
	if len(g.budget) != routeGuardWindow {
		t.Fatalf("window holds %d entries, want %d", len(g.budget), routeGuardWindow)
	}
}

func TestEnvelopeDelivery(t *testing.T) {
	r := New()
	e := NewEnvelope(r, 1e6) // 1000 bytes = 8 ms serialization
	e.Delivery(10.0, 10.0-0.008, 1000, 7)
	if r.Total() != 0 {
		t.Fatalf("exact serialization delay flagged: %v", r.Violations())
	}
	e.Delivery(10.0, 10.0-0.004, 1000, 8) // half the bound: impossible
	if r.Total() != 1 {
		t.Fatal("sub-serialization delay not flagged")
	}
	e.Delivery(10.0, 10.5, 1000, 9) // delivered before sending
	if r.Total() != 2 {
		t.Fatal("negative delay not flagged")
	}
	for _, v := range r.Violations() {
		if v.Layer != "ebl" || v.Name != "delay_envelope" {
			t.Fatalf("violation = %+v", v)
		}
	}
}

func TestEnvelopeNilSafe(t *testing.T) {
	var e *Envelope
	e.Delivery(1, 2, 100, 1)
	e.BadSample(1, nil)
}

func TestEnvelopeBadSample(t *testing.T) {
	r := New()
	e := NewEnvelope(r, 1e6)
	e.BadSample(3, nil) // nil error is not a violation
	if r.Total() != 0 {
		t.Fatal("nil error flagged")
	}
	e.BadSample(3, errSentinel{})
	if r.Total() != 1 {
		t.Fatal("rejected sample not flagged")
	}
	if v := r.Violations()[0]; v.Name != "metric_sample" {
		t.Fatalf("violation = %+v", v)
	}
}

type errSentinel struct{}

func (errSentinel) Error() string { return "bad sample" }

func TestViolationUIDfCarriesTrail(t *testing.T) {
	r := New()
	r.SetTrail(func(uid uint64) []string {
		if uid == 42 {
			return []string{"t=1.0s n0 tx uid=42", "t=1.1s n1 rx_ok uid=42"}
		}
		return nil
	})
	r.ViolationUIDf(1.5, "ebl", "delay_envelope", 42, "delay %v too low", 0.001)
	r.ViolationUIDf(1.6, "ebl", "delay_envelope", 7, "delay %v too low", 0.002)
	vs := r.Violations()
	if len(vs) != 2 {
		t.Fatalf("got %d violations, want 2", len(vs))
	}
	if vs[0].UID != 42 || len(vs[0].Trail) != 2 {
		t.Fatalf("violation missing uid/trail: %+v", vs[0])
	}
	if vs[1].UID != 7 || vs[1].Trail != nil {
		t.Fatalf("unseen uid grew a trail: %+v", vs[1])
	}
	// Error() format is unchanged by the new fields.
	want := "check: t=1.500000000s ebl/delay_envelope: delay 0.001 too low"
	if got := vs[0].Error(); got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
}

func TestSetTrailNilSafe(t *testing.T) {
	var r *Registry
	r.SetTrail(func(uint64) []string { return nil }) // must not panic
	r.ViolationUIDf(1, "x", "y", 3, "msg")
	reg := New()
	reg.ViolationUIDf(1, "x", "y", 3, "msg") // no resolver installed
	if v := reg.Violations()[0]; v.UID != 3 || v.Trail != nil {
		t.Fatalf("violation = %+v", v)
	}
}
