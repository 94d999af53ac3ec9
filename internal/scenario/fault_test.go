package scenario_test

import (
	"bytes"
	"testing"

	"vanetsim/internal/fault"
	"vanetsim/internal/geom"
	"vanetsim/internal/scenario"
	"vanetsim/internal/trace"
)

// shortFaultTrial is a 30-second trial1 with tracing and telemetry on,
// faulted by plan.
func shortFaultTrial(mac scenario.MACType, plan fault.Plan) scenario.TrialConfig {
	cfg := scenario.Trial1()
	if mac == scenario.MAC80211 {
		cfg = scenario.Trial3()
	}
	cfg.Duration = 30
	cfg.CollectTrace = true
	cfg.Telemetry = true
	cfg.Faults = plan
	return cfg
}

func traceBytes(t *testing.T, r *scenario.TrialResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, r.Trace); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFaultedTrialInjectsAndCounts(t *testing.T) {
	plan := fault.Plan{
		Bernoulli:     fault.Bernoulli{LossProb: 0.05},
		Burst:         fault.Burst(0.1, 4),
		ShadowSigmaDB: 4,
		Outages:       []fault.Outage{{Node: 1, Start: 22, Duration: 5}},
	}
	r := scenario.RunTrial(shortFaultTrial(scenario.MACTDMA, plan))

	fs := r.World.FaultStats()
	if fs.DroppedBernoulli == 0 || fs.DroppedBurst == 0 || fs.BurstTransitions == 0 {
		t.Fatalf("loss models never fired: %+v", fs)
	}
	snap := r.Telemetry
	for _, name := range []string{
		"fault/rx_impaired", "fault/rx_dropped_outage", "fault/tx_suppressed_outage",
		"fault/rx_dropped_bernoulli", "fault/rx_dropped_burst",
		"fault/rx_dropped_data_frames", "fault/burst_transitions",
		"fault/shadow_samples",
	} {
		if _, ok := snap.Counter(name); !ok {
			t.Errorf("faulted run missing counter %s", name)
		}
	}
	if imp, _ := snap.Counter("fault/rx_impaired"); imp == 0 {
		t.Fatal("fault/rx_impaired = 0 with 15% stationary loss")
	}
	if shadow, _ := snap.Counter("fault/shadow_samples"); shadow == 0 {
		t.Fatal("shadowing enabled but drew no samples")
	}
	g, ok := snap.Gauge("fault/outage_seconds")
	if !ok || g.Value != 5 {
		t.Fatalf("fault/outage_seconds = %+v, want 5", g)
	}
	// Node 1's radio must have seen the outage directly. The in-window drops
	// are audited: nothing vanishes without a counter.
	st := r.World.Node(1).Radio.Stats()
	if st.RxDroppedOutage == 0 {
		t.Fatal("outage on node 1 dropped nothing — silent loss or no outage")
	}
}

func TestFaultCountersAbsentWhenOff(t *testing.T) {
	r := scenario.RunTrial(shortFaultTrial(scenario.MACTDMA, fault.Plan{}))
	if _, ok := r.Telemetry.Counter("fault/rx_impaired"); ok {
		t.Fatal("unfaulted run registered fault counters (golden digests would shift)")
	}
	if _, ok := r.Telemetry.Gauge("fault/outage_seconds"); ok {
		t.Fatal("unfaulted run registered fault/outage_seconds")
	}
	if fs := r.World.FaultStats(); fs != (fault.Stats{}) {
		t.Fatalf("unfaulted run has non-zero fault stats: %+v", fs)
	}
}

func TestNoOpOutageRejected(t *testing.T) {
	// A window that never opens, or opened before the run, is no outage:
	// the trial refuses it rather than run it as a no-op or clamp it.
	for _, o := range []fault.Outage{
		{Node: 1, Start: 10, Duration: 0},
		{Node: 2, Start: 5, Duration: -1},
		{Node: 0, Start: -5, Duration: 8},
	} {
		cfg := shortFaultTrial(scenario.MACTDMA, fault.Plan{Outages: []fault.Outage{o}})
		if err := cfg.Validate(); err == nil {
			t.Errorf("outage %+v: TrialConfig.Validate accepted it", o)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("outage %+v: RunTrial ran it", o)
				}
			}()
			scenario.RunTrial(cfg)
		}()
	}
}

func TestOutageSpanningTrialEnd(t *testing.T) {
	// The outage opens at t=25 and nominally recovers at t=45, but the trial
	// ends at 30: the radio must still be down at the end, and the gauge
	// must report only the 5 in-run seconds.
	plan := fault.Plan{Outages: []fault.Outage{{Node: 1, Start: 25, Duration: 20}}}
	r := scenario.RunTrial(shortFaultTrial(scenario.MACTDMA, plan))
	if !r.World.Node(1).Radio.Down() {
		t.Fatal("radio recovered even though the outage outlives the trial")
	}
	g, ok := r.Telemetry.Gauge("fault/outage_seconds")
	if !ok || g.Value != 5 {
		t.Fatalf("fault/outage_seconds = %+v, want 5 (clamped to run end)", g)
	}
	for _, n := range r.World.Nodes {
		if n.ID != 1 && n.Radio.Down() {
			t.Fatalf("outage leaked to node %v", n.ID)
		}
	}
}

func TestOutageDegradesDelivery(t *testing.T) {
	// Platoon 2 (nodes 3,4,5) communicates from t=0; knock out its middle
	// receiver for most of that window and the platoon must deliver less.
	base := scenario.RunTrial(shortFaultTrial(scenario.MACTDMA, fault.Plan{}))
	out := scenario.RunTrial(shortFaultTrial(scenario.MACTDMA, fault.Plan{
		Outages: []fault.Outage{{Node: 4, Start: 1, Duration: 18}},
	}))
	nBase := len(base.Platoon2.MiddleDelays().Points())
	nOut := len(out.Platoon2.MiddleDelays().Points())
	if nOut >= nBase {
		t.Fatalf("middle-vehicle deliveries %d with an 18 s outage, %d without", nOut, nBase)
	}
	if st := out.World.Node(4).Radio.Stats(); st.RxDroppedOutage == 0 {
		t.Fatal("receptions lost to the outage were not counted")
	}
}

func TestFaultedTrialDeterminism80211(t *testing.T) {
	// Same seed, same plan → byte-identical trace, including under the
	// randomised MAC. This is the single-run core of the CI determinism gate.
	plan := fault.Plan{
		Bernoulli:     fault.Bernoulli{LossProb: 0.05, BitErrorRate: 1e-6},
		Burst:         fault.Burst(0.1, 4),
		ShadowSigmaDB: 4,
		Outages:       []fault.Outage{{Node: 1, Start: 22, Duration: 5}},
	}
	a := scenario.RunTrial(shortFaultTrial(scenario.MAC80211, plan))
	b := scenario.RunTrial(shortFaultTrial(scenario.MAC80211, plan))
	if !bytes.Equal(traceBytes(t, a), traceBytes(t, b)) {
		t.Fatal("same seed and plan produced different traces")
	}
}

func TestShadowingChangesOutcomeButNotStructure(t *testing.T) {
	base := scenario.RunTrial(shortFaultTrial(scenario.MACTDMA, fault.Plan{}))
	shadowed := scenario.RunTrial(shortFaultTrial(scenario.MACTDMA, fault.Plan{ShadowSigmaDB: 8}))
	if bytes.Equal(traceBytes(t, base), traceBytes(t, shadowed)) {
		t.Fatal("8 dB shadowing left the trace untouched")
	}
	if n, _ := shadowed.Telemetry.Counter("fault/shadow_samples"); n == 0 {
		t.Fatal("no shadowing draws recorded")
	}
}

func TestWorldRejectsInvalidPlan(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld accepted an invalid fault plan")
		}
	}()
	cfg := scenario.DefaultStackConfig(scenario.MACTDMA)
	cfg.Faults = fault.Plan{Bernoulli: fault.Bernoulli{LossProb: 1.5}}
	scenario.NewWorld(cfg, 1)
}

func TestOutageStartClampedToNow(t *testing.T) {
	// A node added after its outage window opened drops its radio at once
	// and recovers on schedule.
	cfg := scenario.DefaultStackConfig(scenario.MACTDMA)
	cfg.Faults = fault.Plan{Outages: []fault.Outage{{Node: 0, Start: 1, Duration: 4}}}
	w := scenario.NewWorld(cfg, 1)
	w.Sched.RunUntil(2)
	n := w.AddNode(0, func() geom.Vec2 { return geom.V(0, 0) })
	w.Sched.RunUntil(3)
	if !n.Radio.Down() {
		t.Fatal("radio up although its window opened before the node was added")
	}
	w.Sched.RunUntil(10)
	if n.Radio.Down() {
		t.Fatal("radio still down after the clamped window closed")
	}
}
