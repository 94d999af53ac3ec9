package vanetsim

import (
	"math"
	"strings"
	"testing"
)

// One NaN among real samples is the regression the "initial pkt" row
// used to get wrong: stats.MeanCI propagates the NaN and the whole row
// prints "NaN ± NaN", hiding the two real measurements. The CI must
// instead cover the observed samples, with the miss counted explicitly.
func TestAggregateFirstCIOverObservedSamples(t *testing.T) {
	st := &ReplicationStudy{Runs: []Replication{
		{Seed: 1, AvgDelayS: 0.5, SteadyS: 0.4, FirstS: 1.0, AvgTputMbps: 1.0},
		{Seed: 2, AvgDelayS: 0.6, SteadyS: 0.5, FirstS: math.NaN(), AvgTputMbps: 1.1},
		{Seed: 3, AvgDelayS: 0.7, SteadyS: 0.6, FirstS: 3.0, AvgTputMbps: 1.2},
	}}
	st.aggregate()
	delay, steady, first, tput := st.Metrics[0], st.Metrics[1], st.Metrics[2], st.Metrics[3]
	if first.Name != MetricFirst || first.Missing != 1 {
		t.Fatalf("%s missing = %d, want %s missing 1", first.Name, first.Missing, MetricFirst)
	}
	if math.IsNaN(first.CI.Mean) || first.CI.Mean != 2.0 || first.CI.N != 2 {
		t.Fatalf("initial-packet CI = %+v, want mean 2.0 over the 2 observed samples", first.CI)
	}
	if math.IsNaN(first.CI.HalfWidth) || math.IsInf(first.CI.HalfWidth, 1) {
		t.Fatalf("initial-packet half-width = %v, want finite", first.CI.HalfWidth)
	}
	// The other rows are unaffected by the missing first-packet sample.
	for _, m := range []MetricPrecision{delay, steady, tput} {
		if m.CI.N != 3 || m.Missing != 0 {
			t.Fatalf("%s: N=%d missing=%d, want the full 3 samples", m.Name, m.CI.N, m.Missing)
		}
	}
	out := st.String()
	if strings.Contains(out, "NaN") {
		t.Fatalf("report prints NaN despite observed samples:\n%s", out)
	}
	if !strings.Contains(out, "missing in 1/3 replications") {
		t.Fatalf("report does not state the missing count:\n%s", out)
	}
}
