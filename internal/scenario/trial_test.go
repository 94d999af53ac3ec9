package scenario_test

import (
	"math"
	"testing"

	"vanetsim/internal/mobility"
	"vanetsim/internal/scenario"
	"vanetsim/internal/sim"
)

// Trials are expensive-ish; run each once and share.
var (
	trial1 = scenario.RunTrial(scenario.Trial1())
	trial2 = scenario.RunTrial(scenario.Trial2())
	trial3 = scenario.RunTrial(scenario.Trial3())
)

func TestScenarioChoreography(t *testing.T) {
	r := trial1
	// Platoon 1 halted at the intersection in its own lane.
	lead1 := r.Platoon1.Platoon.Lead()
	if lead1.Phase() != mobility.Stopped {
		t.Fatalf("platoon 1 lead phase = %v", lead1.Phase())
	}
	if pos := lead1.Position(); math.Abs(pos.X-5) > 1e-6 || math.Abs(pos.Y) > 1e-6 {
		t.Fatalf("platoon 1 lead at %v, want (5, 0)", pos)
	}
	// Platoon 2 drove away east.
	lead2 := r.Platoon2.Platoon.Lead()
	if lead2.Position().X < 1000 {
		t.Fatalf("platoon 2 lead at %v, should have departed east", lead2.Position())
	}
}

func TestCommunicationWindows(t *testing.T) {
	r := trial1
	// Platoon 1 is silent while approaching (first ~20 s), active after.
	series := r.Platoon1.Throughput().SeriesUntil(r.Config.Duration)
	for _, p := range series {
		if p.T < 19 && p.Mbps > 0 {
			t.Fatalf("platoon 1 received traffic at %v while still approaching", p.T)
		}
	}
	activeAfter := false
	for _, p := range series {
		if p.T > 25 && p.Mbps > 0 {
			activeAfter = true
			break
		}
	}
	if !activeAfter {
		t.Fatal("platoon 1 never communicated after stopping")
	}
	// Platoon 2 is active early and quiet after departing (+ drain slack).
	series2 := r.Platoon2.Throughput().SeriesUntil(r.Config.Duration)
	activeEarly, lateTraffic := false, sim.Time(0)
	for _, p := range series2 {
		if p.T < 20 && p.Mbps > 0 {
			activeEarly = true
		}
		if p.Mbps > 0 && p.T > lateTraffic {
			lateTraffic = p.T
		}
	}
	if !activeEarly {
		t.Fatal("platoon 2 never communicated while stopped at the intersection")
	}
	if lateTraffic > 40 {
		t.Fatalf("platoon 2 still receiving at %v, long after departing at ~20 s", lateTraffic)
	}
}

// The paper's trial-1-vs-trial-2 findings: halving the packet size halves
// TDMA throughput but leaves one-way delay essentially unchanged.
func TestPacketSizeEffectUnderTDMA(t *testing.T) {
	d1 := trial1.Platoon1.MiddleDelays().Summary()
	d2 := trial2.Platoon1.MiddleDelays().Summary()
	if rel := math.Abs(d1.Mean-d2.Mean) / d1.Mean; rel > 0.05 {
		t.Fatalf("TDMA delay changed %.1f%% with packet size; paper: essentially unchanged", rel*100)
	}
	_, s1 := trial1.Platoon1.MiddleDelays().SteadyState()
	_, s2 := trial2.Platoon1.MiddleDelays().SteadyState()
	if rel := math.Abs(s1-s2) / s1; rel > 0.05 {
		t.Fatalf("TDMA steady-state delay changed %.1f%% with packet size", rel*100)
	}

	t1 := trial1.Platoon1.Throughput().Summary(trial1.Config.Duration)
	t2 := trial2.Platoon1.Throughput().Summary(trial2.Config.Duration)
	ratio := t2.Mean / t1.Mean
	if ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("trial2/trial1 throughput ratio = %.2f, want ~0.5 (one packet per slot)", ratio)
	}
}

// The paper's trial-1-vs-trial-3 findings: 802.11 gives far higher
// throughput and far lower delay than TDMA.
func TestMACEffect(t *testing.T) {
	dTDMA := trial1.Platoon1.MiddleDelays().Summary()
	dDCF := trial3.Platoon1.MiddleDelays().Summary()
	if dTDMA.Mean < 10*dDCF.Mean {
		t.Fatalf("TDMA delay (%.3fs) should dwarf 802.11 delay (%.5fs)", dTDMA.Mean, dDCF.Mean)
	}
	tTDMA := trial1.Platoon1.Throughput().Summary(trial1.Config.Duration)
	tDCF := trial3.Platoon1.Throughput().Summary(trial3.Config.Duration)
	if tDCF.Mean < 2*tTDMA.Mean {
		t.Fatalf("802.11 throughput (%.3f) should far exceed TDMA (%.3f)", tDCF.Mean, tTDMA.Mean)
	}
	// Initial-packet delays, the paper's safety argument: TDMA ~0.2 s,
	// 802.11 under 20 ms.
	f1, ok1 := trial1.Platoon1.MiddleDelays().First()
	f3, ok3 := trial3.Platoon1.MiddleDelays().First()
	if !ok1 || !ok3 {
		t.Fatal("missing initial packets")
	}
	if f1 < 0.1 || f1 > 0.5 {
		t.Fatalf("TDMA initial-packet delay = %v, want a few tenths of a second", f1)
	}
	if f3 > 0.02 {
		t.Fatalf("802.11 initial-packet delay = %v, want < 20 ms", f3)
	}
}

// The transient/steady structure of Figs. 5–9: delay ramps up while the
// sender's window opens, then plateaus.
func TestDelayTransientThenSteady(t *testing.T) {
	s := trial1.Platoon1.MiddleDelays()
	cut := s.TruncationIndex()
	if cut == 0 {
		t.Fatal("no transient detected; the paper's Figs. 5-6 show one")
	}
	transient, steadyPts := s.Points()[:cut], s.Points()[cut:]
	if len(steadyPts) < 10*len(transient)/2 && len(steadyPts) < 100 {
		t.Fatalf("steady region too short: %d vs %d transient", len(steadyPts), len(transient))
	}
	_, level := s.SteadyState()
	// The first packet is far below the steady level (queue still empty).
	first, _ := s.First()
	if float64(first) > level/2 {
		t.Fatalf("first delay %v vs steady %v: transient should start low", first, level)
	}
	// Steady region is flat: standard deviation well under the mean.
	var sum, ss float64
	for _, p := range steadyPts {
		sum += float64(p.Delay)
	}
	mean := sum / float64(len(steadyPts))
	for _, p := range steadyPts {
		d := float64(p.Delay) - mean
		ss += d * d
	}
	if sd := math.Sqrt(ss / float64(len(steadyPts))); sd > 0.2*mean {
		t.Fatalf("steady state not flat: sd=%v mean=%v", sd, mean)
	}
}

func TestThroughputConfidenceAnalysis(t *testing.T) {
	// The paper: "actual average throughput ... within X Mbps of the
	// observed value, with a 95% confidence and a Y% relative precision".
	ci := trial1.Platoon1.Throughput().CI(trial1.Config.Duration, 10, 0.95)
	if ci.HalfWidth <= 0 || math.IsInf(ci.HalfWidth, 1) {
		t.Fatalf("degenerate CI: %+v", ci)
	}
	if ci.Mean <= 0 {
		t.Fatal("throughput CI mean must be positive")
	}
}

func TestTrialDeterminism(t *testing.T) {
	a := scenario.RunTrial(scenario.Trial1())
	b := scenario.RunTrial(scenario.Trial1())
	pa, pb := a.Platoon1.MiddleDelays().Points(), b.Platoon1.MiddleDelays().Points()
	if len(pa) != len(pb) {
		t.Fatalf("same seed, different packet counts: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("same seed diverged at point %d: %+v vs %+v", i, pa[i], pb[i])
		}
	}
}

func TestTrialSeedSensitivity(t *testing.T) {
	cfg := scenario.Trial3() // 802.11 actually uses randomness (backoff)
	cfg.Seed = 2
	b := scenario.RunTrial(cfg)
	pa := trial3.Platoon1.MiddleDelays().Delays()
	pb := b.Platoon1.MiddleDelays().Delays()
	if len(pa) == len(pb) {
		same := true
		for i := range pa {
			if pa[i] != pb[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical 802.11 delay series")
		}
	}
}

func TestTraceCollection(t *testing.T) {
	cfg := scenario.Trial1()
	cfg.Duration = 40
	cfg.CollectTrace = true
	r := scenario.RunTrial(cfg)
	if len(r.Trace) == 0 {
		t.Fatal("no trace records collected")
	}
	sends, recvs := 0, 0
	for _, rec := range r.Trace {
		switch rec.Op {
		case 's':
			sends++
		case 'r':
			recvs++
		}
	}
	if sends == 0 || recvs == 0 {
		t.Fatalf("trace incomplete: %d sends, %d recvs", sends, recvs)
	}
	if recvs > sends {
		t.Fatal("more receives than sends is impossible")
	}
}

func TestRunTrialPanicsOnTinyPlatoon(t *testing.T) {
	cfg := scenario.Trial1()
	cfg.PlatoonSize = 1
	defer func() {
		if recover() == nil {
			t.Fatal("platoon of one did not panic")
		}
	}()
	scenario.RunTrial(cfg)
}

func TestMACTypeString(t *testing.T) {
	if scenario.MACTDMA.String() != "TDMA" || scenario.MAC80211.String() != "802.11" {
		t.Fatal("MAC names wrong")
	}
}

func TestTrialResultAccessors(t *testing.T) {
	r := trial1
	if got := r.Platoon1.TrailingDelays(); got == nil || got.Len() == 0 {
		t.Fatal("TrailingDelays empty")
	}
	if s := r.Config.String(); s != "trial1{mac=TDMA pkt=1000B}" {
		t.Fatalf("TrialConfig.String = %q", s)
	}
	w := r.World
	if w.Config().MAC != scenario.MACTDMA {
		t.Fatal("World.Config wrong")
	}
	if w.Node(0) == nil || w.Node(0).ID != 0 {
		t.Fatal("World.Node lookup broken")
	}
	if w.Node(99) != nil {
		t.Fatal("phantom node")
	}
	if got := scenario.MACType(9).String(); got != "mac(9)" {
		t.Fatalf("unknown MAC string = %q", got)
	}
}
