package meta_test

import (
	"bytes"
	"math"
	"testing"

	vanetsim "vanetsim"

	"vanetsim/internal/app"
	"vanetsim/internal/fault"
	"vanetsim/internal/geom"
	"vanetsim/internal/packet"
	"vanetsim/internal/scenario"
	"vanetsim/internal/sim"
	"vanetsim/internal/trace"
)

// deliveredAtScale runs a static 4-node line topology with one CBR flow
// end to end and returns the set of unique datagram UIDs the sink saw.
// Node spacing is 20·scale metres, so the longest pairwise distance is
// 60·scale m — inside the two-ray crossover (~86 m for the WaveLAN
// geometry) and far inside the ~250 m reception range for every scale
// this test uses. The invariant checker is armed for both runs.
func deliveredAtScale(t *testing.T, mac scenario.MACType, scale float64) map[uint64]bool {
	t.Helper()
	cfg := scenario.DefaultStackConfig(mac)
	cfg.Check = true
	w := scenario.NewWorld(cfg, 1)
	const n = 4
	for i := 0; i < n; i++ {
		x := float64(i) * 20 * scale
		w.AddNode(packet.NodeID(i), func() geom.Vec2 { return geom.V(x, 0) })
	}
	src := app.NewUDPSource(w.Sched, w.Nodes[0].Net, w.PF, 5000, packet.NodeID(n-1), 5001, packet.TypeCBR)
	sink := app.NewUDPSink(w.Sched, w.Nodes[n-1].Net, 5001)
	seen := make(map[uint64]bool)
	sink.OnRecv(func(p *packet.Packet, _ sim.Time) { seen[p.UID] = true })
	app.NewCBR(w.Sched, src, 400, 5e4).Start()
	w.Sched.RunUntil(10)
	for _, v := range w.Finish().Violations {
		t.Errorf("mac=%v scale=%v: %v", mac, scale, v.Error())
	}
	if len(seen) == 0 {
		t.Fatalf("mac=%v scale=%v: no datagrams delivered — the relation would hold vacuously", mac, scale)
	}
	return seen
}

// TestDistanceScalingPreservesDelivery pins the first metamorphic
// relation: received power is a function of distance, but as long as
// every pair stays inside reception range, delivery is not. Shrinking
// the whole topology must reproduce exactly the same delivered UIDs.
func TestDistanceScalingPreservesDelivery(t *testing.T) {
	for _, mac := range []scenario.MACType{scenario.MACTDMA, scenario.MAC80211} {
		base := deliveredAtScale(t, mac, 1.0)
		for _, scale := range []float64{0.5, 0.8} {
			got := deliveredAtScale(t, mac, scale)
			if len(got) != len(base) {
				t.Fatalf("mac=%v: scale %v delivered %d unique datagrams, scale 1.0 delivered %d",
					mac, scale, len(got), len(base))
			}
			for uid := range base {
				if !got[uid] {
					t.Fatalf("mac=%v: uid %d delivered at scale 1.0 but lost at scale %v", mac, uid, scale)
				}
			}
		}
	}
}

// TestNullFaultPlanIsIdentity pins the second relation: a fault plan
// with every knob at its no-effect value (loss probability 0, a burst
// chain built for 0 stationary loss, no outage) must produce
// byte-identical traces and telemetry to no plan at all. This is the
// fault layer's "zero effect when off" contract, checked through the
// renderers rather than trusted at the gate. A zero-duration outage is
// no knob value at all: Plan.Validate rejects it.
func TestNullFaultPlanIsIdentity(t *testing.T) {
	run := func(plan fault.Plan) (traceBytes, ndjson []byte) {
		cfg := vanetsim.Trial1()
		cfg.Duration = 15
		cfg.CollectTrace = true
		cfg.Telemetry = true
		cfg.Check = true
		cfg.Faults = plan
		r := vanetsim.RunTrial(cfg)
		for _, v := range r.Violations {
			t.Errorf("faults=%+v: %v", plan, v.Error())
		}
		var tb, nb bytes.Buffer
		if err := trace.WriteAll(&tb, r.Trace); err != nil {
			t.Fatal(err)
		}
		if err := r.Telemetry.NDJSON(&nb); err != nil {
			t.Fatal(err)
		}
		return tb.Bytes(), nb.Bytes()
	}
	baseTrace, baseTel := run(fault.Plan{})
	nullPlan := fault.Plan{
		Bernoulli: fault.Bernoulli{LossProb: 0, BitErrorRate: 0},
		Burst:     fault.Burst(0, 4),
	}
	if err := (fault.Plan{Outages: []fault.Outage{{Node: 1, Start: 5, Duration: 0}}}).Validate(); err == nil {
		t.Error("Plan.Validate accepted a zero-duration outage")
	}
	nullTrace, nullTel := run(nullPlan)
	if !bytes.Equal(baseTrace, nullTrace) {
		t.Error("null fault plan changed the packet trace")
	}
	if !bytes.Equal(baseTel, nullTel) {
		t.Error("null fault plan changed the telemetry report")
	}
}

// sameReplication compares two per-seed results field by field, treating
// NaN as equal to NaN (a missing initial-packet sample is an explicit
// NaN, and both runs must miss it identically).
func sameReplication(a, b vanetsim.Replication) bool {
	eq := func(x, y float64) bool {
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	return a.Seed == b.Seed &&
		eq(a.AvgDelayS, b.AvgDelayS) &&
		eq(a.SteadyS, b.SteadyS) &&
		eq(a.FirstS, b.FirstS) &&
		eq(a.AvgTputMbps, b.AvgTputMbps)
}

// TestReplicationDoublingPreservesPerSeedResults pins the third
// relation: per-seed results are a pure function of (config, seed), so
// extending the seed list must reproduce the shared prefix exactly.
// Shared RNG state, pooled-object reuse across runs, or an
// order-dependent reduction would all break this.
func TestReplicationDoublingPreservesPerSeedResults(t *testing.T) {
	cfg := vanetsim.Trial1()
	cfg.Duration = 40
	cfg.Check = true
	short, err := vanetsim.RunReplicationsPool(cfg, []uint64{1, 2, 3}, vanetsim.Pool{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	long, err := vanetsim.RunReplicationsPool(cfg, []uint64{1, 2, 3, 4, 5, 6}, vanetsim.Pool{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(short.Runs) != 3 || len(long.Runs) != 6 {
		t.Fatalf("run counts = %d/%d, want 3/6", len(short.Runs), len(long.Runs))
	}
	for i, a := range short.Runs {
		if b := long.Runs[i]; !sameReplication(a, b) {
			t.Errorf("seed %d: short study %+v != long study prefix %+v", a.Seed, a, b)
		}
	}
}
