package vanetsim_test

import (
	"math"
	"strings"
	"testing"

	"vanetsim"
)

// studyMetric returns the study's result for the named stopping metric.
func studyMetric(tb testing.TB, st *vanetsim.ReplicationStudy, name string) vanetsim.MetricPrecision {
	tb.Helper()
	for _, m := range st.Metrics {
		if m.Name == name {
			return m
		}
	}
	tb.Fatalf("study has no %q metric: %+v", name, st.Metrics)
	return vanetsim.MetricPrecision{}
}

func TestReplicationStudy80211(t *testing.T) {
	cfg := vanetsim.Trial3()
	cfg.Duration = vanetsim.Seconds(60)
	st, err := vanetsim.RunReplicationsPool(cfg, []uint64{1, 2, 3, 4}, vanetsim.Pool{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Runs) != 4 {
		t.Fatalf("runs = %d", len(st.Runs))
	}
	// 802.11 backoff is random, so replications must differ...
	same := true
	for _, r := range st.Runs[1:] {
		if r.AvgDelayS != st.Runs[0].AvgDelayS {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical delay means")
	}
	// ...but only slightly: the CI should be tight around a stable value.
	delay := studyMetric(t, st, vanetsim.MetricDelay).CI
	if delay.HalfWidth <= 0 || math.IsInf(delay.HalfWidth, 1) {
		t.Fatalf("degenerate delay CI: %+v", delay)
	}
	if delay.RelPrecision() > 0.5 {
		t.Fatalf("delay CI implausibly wide: %+v", delay)
	}
	if studyMetric(t, st, vanetsim.MetricTput).CI.Mean <= 0 {
		t.Fatal("throughput CI mean must be positive")
	}
	out := st.String()
	for _, want := range []string{"4 replications", "avg delay", "avg throughput"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestReplicationStudyTDMADeterministicLayersAgree(t *testing.T) {
	// TDMA has no random backoff, so per-seed results are identical and
	// the cross-seed CI collapses to zero width — which is itself a
	// statement about the protocol.
	cfg := vanetsim.Trial1()
	cfg.Duration = vanetsim.Seconds(50)
	st, err := vanetsim.RunReplicationsPool(cfg, []uint64{1, 2, 3}, vanetsim.Pool{})
	if err != nil {
		t.Fatal(err)
	}
	if hw := studyMetric(t, st, vanetsim.MetricSteady).CI.HalfWidth; hw > 1e-9 {
		t.Fatalf("TDMA replications should agree exactly; CI half-width = %v", hw)
	}
}

// TestReplicationStudyErrorsOnOneSeed: fewer than two seeds is an error
// (it used to panic), so cmd tools fail with a message, not a stack
// trace.
func TestReplicationStudyErrorsOnOneSeed(t *testing.T) {
	for _, seeds := range [][]uint64{nil, {1}} {
		if _, err := vanetsim.RunReplicationsPool(vanetsim.Trial1(), seeds, vanetsim.Pool{}); err == nil {
			t.Fatalf("seeds=%v: expected an error", seeds)
		}
	}
}

// TestReplicationStudyMissingFirstIsNaN: a duration too short for any
// packet to reach the trailing vehicle must surface as NaN — an
// explicit missing-sample marker — never as a silent 0.0 s indication
// delay (which would claim every speed/gap combination safe).
func TestReplicationStudyMissingFirstIsNaN(t *testing.T) {
	cfg := vanetsim.Trial1()
	cfg.Duration = 0 // no packet is ever received
	st, err := vanetsim.RunReplicationsPool(cfg, []uint64{1, 2}, vanetsim.Pool{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range st.Runs {
		if !math.IsNaN(r.FirstS) {
			t.Fatalf("seed %d: FirstS = %v, want NaN", r.Seed, r.FirstS)
		}
	}
	first := studyMetric(t, st, vanetsim.MetricFirst)
	if !math.IsNaN(first.CI.Mean) {
		t.Fatalf("initial-packet CI mean = %v, want NaN", first.CI.Mean)
	}
	// The all-missing case is also counted explicitly, and the report
	// says so instead of printing a bare NaN row.
	if first.Missing != 2 {
		t.Fatalf("initial-packet missing = %d, want 2", first.Missing)
	}
	if out := st.String(); !strings.Contains(out, "missing in 2/2 replications") {
		t.Fatalf("report does not state the missing count:\n%s", out)
	}
}

// TestReplicationStudyRejectsDuplicateSeeds: a duplicate seed re-runs
// the identical simulation and double-counts it, which deflates the
// sample variance and artificially narrows every CI — it must be
// rejected, not silently accepted.
func TestReplicationStudyRejectsDuplicateSeeds(t *testing.T) {
	cfg := vanetsim.Trial1()
	cfg.Duration = vanetsim.Seconds(10)
	_, err := vanetsim.RunReplicationsPool(cfg, []uint64{1, 2, 1}, vanetsim.Pool{})
	if err == nil {
		t.Fatal("duplicate seeds accepted")
	}
	if !strings.Contains(err.Error(), "duplicate replication seed 1") {
		t.Fatalf("unhelpful duplicate-seed error: %v", err)
	}
}

// TestReplicationsPoolInvariant: every pool size yields the identical
// study — the runner's determinism contract at the library surface.
func TestReplicationsPoolInvariant(t *testing.T) {
	cfg := vanetsim.Trial3()
	cfg.Duration = vanetsim.Seconds(40)
	seeds := []uint64{1, 2, 3}
	seq, err := vanetsim.RunReplicationsPool(cfg, seeds, vanetsim.Pool{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := vanetsim.RunReplicationsPool(cfg, seeds, vanetsim.Pool{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Fatalf("parallel study differs from sequential:\n--- j=1\n%s--- j=8\n%s", seq, par)
	}
}
