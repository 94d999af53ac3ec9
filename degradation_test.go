package vanetsim_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"vanetsim"
)

// runDegradation runs a sweep for a test, failing it on any engine error.
func runDegradation(t *testing.T, cfg vanetsim.DegradationConfig) []vanetsim.DegradationPoint {
	t.Helper()
	pts, err := vanetsim.RunDegradation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

func shortDegradation(lossProbs ...float64) vanetsim.DegradationConfig {
	cfg := vanetsim.DefaultDegradation(vanetsim.MACTDMA)
	cfg.Base.Duration = vanetsim.Seconds(30)
	cfg.LossProbs = lossProbs
	return cfg
}

func TestDegradationSweepMonotoneInjection(t *testing.T) {
	cfg := shortDegradation(0, 0.1, 0.3)
	pts := runDegradation(t, cfg)
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	if pts[0].Injected != 0 {
		t.Fatalf("clean point injected %d drops", pts[0].Injected)
	}
	// Absolute injection counts are not monotone — heavier loss collapses
	// TCP's offered load, shrinking the frame population — so assert only
	// that every faulted point injects.
	if pts[1].Injected == 0 || pts[2].Injected == 0 {
		t.Fatalf("faulted points injected nothing: %d, %d", pts[1].Injected, pts[2].Injected)
	}
	if pts[2].ThroughputMbps >= pts[0].ThroughputMbps {
		t.Fatalf("30%% loss did not cut throughput: %.4f vs %.4f Mbps",
			pts[2].ThroughputMbps, pts[0].ThroughputMbps)
	}
	if pts[2].Retransmits <= pts[0].Retransmits {
		t.Fatalf("30%% loss did not force TCP retransmissions: %d vs %d",
			pts[2].Retransmits, pts[0].Retransmits)
	}
	// The default braking model's 5 m margin already makes the paper's
	// 25 m / 50 mph point marginal for the trailing vehicle, so assert
	// degradation, not absolute safety: loss can only delay the first
	// packet, never speed it up.
	if pts[2].SafetyMarginM > pts[0].SafetyMarginM {
		t.Fatalf("safety margin improved under 30%% loss: %.2f m vs %.2f m",
			pts[2].SafetyMarginM, pts[0].SafetyMarginM)
	}
	if math.IsInf(pts[0].SafetyMarginM, -1) || math.IsNaN(pts[0].FirstDelayS) {
		t.Fatal("clean channel delivered no first packet")
	}
}

func TestDegradationBurstModeAndOutage(t *testing.T) {
	cfg := shortDegradation(0.1)
	cfg.BurstLen = 4
	cfg.ShadowSigmaDB = 4
	cfg.Outage = vanetsim.FaultOutage{Node: 1, Start: 22, Duration: 5}
	pts := runDegradation(t, cfg)
	if len(pts) != 1 || pts[0].Injected == 0 {
		t.Fatalf("burst-mode point injected nothing: %+v", pts)
	}
}

func TestDegradationOrderIndependentOfJobs(t *testing.T) {
	mk := func(jobs int) []vanetsim.DegradationPoint {
		cfg := shortDegradation(0, 0.05, 0.1, 0.2)
		cfg.Jobs = jobs
		return runDegradation(t, cfg)
	}
	a, b := mk(1), mk(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("point %d differs between -j1 and -j8:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestDegradationRenderers(t *testing.T) {
	pts := runDegradation(t, shortDegradation(0, 0.2))
	table := vanetsim.FormatDegradationTable(pts)
	if !strings.Contains(table, "margin_m") || len(strings.Split(strings.TrimSpace(table), "\n")) != 3 {
		t.Fatalf("bad table:\n%s", table)
	}
	csv := vanetsim.DegradationCSV(pts)
	if !strings.HasPrefix(csv, "loss_prob,") || len(strings.Split(strings.TrimSpace(csv), "\n")) != 3 {
		t.Fatalf("bad csv:\n%s", csv)
	}
	if runDegradation(t, shortDegradation()) != nil {
		t.Fatal("empty sweep must return nil")
	}
}

// An out-of-range loss rate is rejected before any point runs: the
// library must never panic in the fault layer or print a total-loss row
// labelled with the bad rate.
func TestDegradationRejectsBadGrid(t *testing.T) {
	for _, cfg := range []vanetsim.DegradationConfig{
		shortDegradation(0, 1.5),
		shortDegradation(math.NaN()),
		shortDegradation(-1),
		func() vanetsim.DegradationConfig { c := shortDegradation(0.1); c.BurstLen = math.NaN(); return c }(),
		func() vanetsim.DegradationConfig { c := shortDegradation(0.1); c.ShadowSigmaDB = -2; return c }(),
	} {
		ran := 0
		cfg.OnPoint = func(int, vanetsim.DegradationPoint, *vanetsim.TrialResult) error { ran++; return nil }
		pts, err := vanetsim.RunDegradation(cfg)
		if err == nil || pts != nil || ran != 0 {
			t.Errorf("loss %v burst %v shadow %v: err=%v, %d points, %d run", cfg.LossProbs, cfg.BurstLen, cfg.ShadowSigmaDB, err, len(pts), ran)
		}
	}
	for _, burst := range []float64{0, 4} {
		cfg := shortDegradation(1.5)
		cfg.BurstLen = burst
		if _, err := vanetsim.RunDegradation(cfg); err == nil || !strings.Contains(err.Error(), "outside [0, 1]") {
			t.Errorf("burst %v: loss 1.5 gave err %v", burst, err)
		}
	}
}

// OnPoint sees every point in sweep order, and its error stops the sweep.
func TestDegradationOnPoint(t *testing.T) {
	cfg := shortDegradation(0, 0.1, 0.2)
	cfg.Jobs = 3
	var seen []float64
	cfg.OnPoint = func(i int, pt vanetsim.DegradationPoint, r *vanetsim.TrialResult) error {
		if r == nil || pt.LossProb != cfg.LossProbs[i] {
			t.Errorf("point %d: loss %v, result %v", i, pt.LossProb, r)
		}
		seen = append(seen, pt.LossProb)
		if i == 1 {
			return errors.New("stop")
		}
		return nil
	}
	if _, err := vanetsim.RunDegradation(cfg); err == nil || err.Error() != "stop" {
		t.Fatalf("OnPoint error not returned: %v", err)
	}
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 0.1 {
		t.Fatalf("OnPoint saw %v, want [0 0.1]", seen)
	}
}
