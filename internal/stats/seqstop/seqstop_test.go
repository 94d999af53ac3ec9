package seqstop

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"vanetsim/internal/runner"
	"vanetsim/internal/sim"
	"vanetsim/internal/stats"
)

// sample is the synthetic replication used throughout: a pure function
// of the replication index (the engine's determinism precondition),
// with enough spread that the CI needs several replications to close.
func sample(i int) []float64 {
	rng := sim.NewRNG(uint64(i) + 1).Fork("seqstop-test")
	return []float64{rng.Normal(100, 5), rng.Normal(10, 0.2)}
}

// expectN is the reference stopping rule, computed directly from the
// definition: the earliest prefix k in [minReps, maxReps] whose every
// metric CI meets tol.
func expectN(minReps, maxReps int, tol float64) (int, bool) {
	for k := minReps; k <= maxReps; k++ {
		cols := [][]float64{make([]float64, k), make([]float64, k)}
		for i := 0; i < k; i++ {
			v := sample(i)
			cols[0][i], cols[1][i] = v[0], v[1]
		}
		met := true
		for _, col := range cols {
			ci, _ := stats.MeanCIObserved(col, 0.95)
			if !ci.Met(tol) {
				met = false
			}
		}
		if met {
			return k, true
		}
	}
	return maxReps, false
}

func TestRunStopsAtEarliestQualifyingPrefix(t *testing.T) {
	const tol = 0.02
	wantN, wantMet := expectN(2, 64, tol)
	if !wantMet {
		t.Fatalf("test data never meets tolerance %v within 64 reps", tol)
	}
	if wantN <= 2 {
		t.Fatalf("test data converges immediately (N=%d); pick wider spread", wantN)
	}
	res, err := Run(Config{
		Metrics: []string{"a", "b"}, Tolerance: tol, MinReps: 2,
	}, func(i int) ([]float64, error) { return sample(i), nil })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met || res.N != wantN {
		t.Fatalf("N = %d (met %v), want %d", res.N, res.Met, wantN)
	}
	if len(res.Samples) != wantN {
		t.Fatalf("verdict carries %d samples, want %d", len(res.Samples), wantN)
	}
	if res.Executed < res.N {
		t.Fatalf("executed %d < used %d", res.Executed, res.N)
	}
	for _, m := range res.Metrics {
		if !m.CI.Met(tol) {
			t.Fatalf("metric %s reported unmet CI in a met verdict: %+v", m.Name, m.CI)
		}
		if m.CI.N != wantN {
			t.Fatalf("metric %s CI over %d samples, want %d", m.Name, m.CI.N, wantN)
		}
	}
}

// The determinism contract: the verdict (N, Met, Metrics, Samples) is
// identical at any worker-pool width.
func TestRunPoolInvariance(t *testing.T) {
	const tol = 0.02
	var ref *Result
	for _, workers := range []int{1, 2, 3, 8} {
		res, err := Run(Config{
			Metrics: []string{"a", "b"}, Tolerance: tol, MinReps: 2,
			Pool: runner.Pool{Workers: workers},
		}, func(i int) ([]float64, error) { return sample(i), nil })
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.N != ref.N || res.Met != ref.Met || res.Executed != ref.Executed {
			t.Fatalf("workers=%d: N=%d met=%v executed=%d, want N=%d met=%v executed=%d",
				workers, res.N, res.Met, res.Executed, ref.N, ref.Met, ref.Executed)
		}
		if !reflect.DeepEqual(res.Metrics, ref.Metrics) {
			t.Fatalf("workers=%d: metrics diverge:\n%+v\nvs\n%+v",
				workers, res.Metrics, ref.Metrics)
		}
		if !reflect.DeepEqual(res.Samples, ref.Samples) {
			t.Fatalf("workers=%d: samples diverge", workers)
		}
	}
}

func TestRunBudgetExhaustedReportsAchievedBound(t *testing.T) {
	// An impossible tolerance: the budget must run out, Met must be
	// false, and the achieved (finite) bound must still be reported.
	res, err := Run(Config{
		Metrics: []string{"a", "b"}, Tolerance: 1e-9, MinReps: 2, MaxReps: 6,
	}, func(i int) ([]float64, error) { return sample(i), nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Fatal("±1e-9 tolerance reported met")
	}
	if res.N != 6 || res.Executed != 6 || len(res.Samples) != 6 {
		t.Fatalf("budget verdict N=%d executed=%d samples=%d, want all 6", res.N, res.Executed, len(res.Samples))
	}
	for _, m := range res.Metrics {
		p := m.CI.RelPrecision()
		if math.IsNaN(p) || math.IsInf(p, 0) || p <= 1e-9 {
			t.Fatalf("metric %s achieved bound = %v, want finite and above tolerance", m.Name, p)
		}
	}
}

func TestRunAllMissingMetricNeverMet(t *testing.T) {
	// A metric that is NaN in every replication must hold the study at
	// "not met" until the budget runs out — never converge at NaN.
	res, err := Run(Config{
		Metrics: []string{"real", "ghost"}, Tolerance: 0.5, MinReps: 2, MaxReps: 5,
	}, func(i int) ([]float64, error) {
		return []float64{100, math.NaN()}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Fatal("all-missing metric reported met")
	}
	ghost := res.Metrics[1]
	if ghost.Missing != 5 || ghost.CI.N != 0 || !math.IsNaN(ghost.CI.Mean) {
		t.Fatalf("ghost metric = %+v, want 5 missing and NaN mean", ghost)
	}
	// The real metric (zero variance) individually met it.
	if !res.Metrics[0].CI.Met(0.5) {
		t.Fatalf("real metric = %+v, want met", res.Metrics[0])
	}
}

func TestRunPartialMissingUsesObservedSamples(t *testing.T) {
	// One missing sample among real ones: the CI covers the observed
	// remainder and the verdict can still be met.
	res, err := Run(Config{
		Metrics: []string{"m"}, Tolerance: 0.5, MinReps: 4, MaxReps: 8,
	}, func(i int) ([]float64, error) {
		if i == 1 {
			return []float64{math.NaN()}, nil
		}
		return []float64{100 + float64(i%2)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met || res.N != 4 {
		t.Fatalf("N = %d (met %v), want met at 4", res.N, res.Met)
	}
	m := res.Metrics[0]
	if m.Missing != 1 || m.CI.N != 3 {
		t.Fatalf("metric = %+v, want 1 missing of 4", m)
	}
}

// Regression: a batch boundary landing BELOW MinReps must not lower the
// prefix-scan cursor — with zero-variance data, a study whose MinReps
// lies past the first batch once stopped at executed+1 (the cursor
// slipped there after the first batch).
func TestRunBatchBelowMinRepsRespectsMinimum(t *testing.T) {
	for minReps := BatchSize + 1; minReps <= 2*BatchSize+1; minReps++ {
		res, err := Run(Config{
			Metrics: []string{"m"}, Tolerance: 0.5, MinReps: minReps, MaxReps: 3 * BatchSize,
		}, func(i int) ([]float64, error) { return []float64{100}, nil })
		if err != nil {
			t.Fatal(err)
		}
		if res.N != minReps || !res.Met {
			t.Fatalf("MinReps %d: N=%d met=%v, want stop exactly at MinReps", minReps, res.N, res.Met)
		}
	}
}

func TestRunErrorPropagation(t *testing.T) {
	boom := fmt.Errorf("boom")
	if _, err := Run(Config{Metrics: []string{"m"}, Tolerance: 0.1, MinReps: 2},
		func(i int) ([]float64, error) { return nil, boom }); err == nil {
		t.Fatal("replication error not propagated")
	}
	if _, err := Run(Config{Metrics: []string{"m"}, Tolerance: 0.1, MinReps: 2},
		func(i int) ([]float64, error) { return []float64{1, 2}, nil }); err == nil ||
		!strings.Contains(err.Error(), "2 samples for 1 metrics") {
		t.Fatalf("sample-arity mismatch not caught: %v", err)
	}
}

// TestResolveDefaults: a zero MinReps or MaxReps resolves to 4 or 64, an
// explicit value is kept, and the resolved rule is what Run executes.
func TestResolveDefaults(t *testing.T) {
	for _, c := range []struct{ min, max, wantMin, wantMax int }{
		{0, 0, 4, 64}, {2, 0, 2, 64}, {0, 8, 4, 8}, {3, 3, 3, 3},
	} {
		got, err := Config{Tolerance: 0.1, MinReps: c.min, MaxReps: c.max}.Resolve()
		if err != nil {
			t.Fatalf("min %d max %d: %v", c.min, c.max, err)
		}
		if got.MinReps != c.wantMin || got.MaxReps != c.wantMax {
			t.Fatalf("min %d max %d resolved to %d/%d, want %d/%d", c.min, c.max, got.MinReps, got.MaxReps, c.wantMin, c.wantMax)
		}
	}
	res, err := Run(Config{Metrics: []string{"m"}, Tolerance: 1e-9},
		func(i int) ([]float64, error) { return []float64{float64(i)}, nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Met || res.Executed != 64 {
		t.Fatalf("met=%v executed=%d, want the default budget of 64 exhausted", res.Met, res.Executed)
	}
}

func TestRunConfigValidation(t *testing.T) {
	rep := func(i int) ([]float64, error) { return []float64{1}, nil }
	cases := []Config{
		{Metrics: nil, Tolerance: 0.1},
		{Metrics: []string{"m"}, Tolerance: 0},
		{Metrics: []string{"m"}, Tolerance: -0.1},
		{Metrics: []string{"m"}, Tolerance: math.NaN()},
		{Metrics: []string{"m"}, Tolerance: math.Inf(1)},
		{Metrics: []string{"m"}, Tolerance: 0.1, MinReps: 1},
		{Metrics: []string{"m"}, Tolerance: 0.1, MinReps: 8, MaxReps: 4},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg, rep); err == nil {
			t.Fatalf("case %d (%+v): invalid config accepted", i, cfg)
		}
	}
}

func TestRunProgressDeterministicAtFixedBatch(t *testing.T) {
	lines := func() []string {
		var out []string
		_, err := Run(Config{
			Metrics: []string{"a", "b"}, Tolerance: 1e-9, MinReps: 2, MaxReps: 4 * BatchSize,
			Progress: func(s string) { out = append(out, s) },
		}, func(i int) ([]float64, error) { return sample(i), nil })
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := lines(), lines()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("progress lines not deterministic:\n%v\nvs\n%v", a, b)
	}
	if len(a) != 3 { // three batches; the final one emits no line
		t.Fatalf("got %d progress lines, want 3: %v", len(a), a)
	}
	for _, l := range a {
		if !strings.Contains(l, "not met yet") {
			t.Fatalf("unexpected progress line %q", l)
		}
	}
}

func TestSeedsDeterministicPrefixNonZeroUnique(t *testing.T) {
	a := Seeds(42, 16)
	b := Seeds(42, 16)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Seeds not deterministic")
	}
	// Prefix property: the stream never re-deals earlier seeds when asked
	// for more.
	long := Seeds(42, 64)
	if !reflect.DeepEqual(a, long[:16]) {
		t.Fatal("Seeds(42, 16) is not a prefix of Seeds(42, 64)")
	}
	seen := make(map[uint64]bool)
	for _, s := range long {
		if s == 0 {
			t.Fatal("seed stream dealt 0")
		}
		if seen[s] {
			t.Fatalf("seed stream dealt duplicate %d", s)
		}
		seen[s] = true
	}
	// Different bases give different streams.
	if reflect.DeepEqual(a, Seeds(43, 16)) {
		t.Fatal("different base seeds produced the same stream")
	}
}

// Evaluate is the shared CI path for fixed-seed studies too: on a full
// column it equals stats.MeanCI, and NaN samples are counted missing
// rather than poisoning the interval.
func TestEvaluateColumns(t *testing.T) {
	rows := [][]float64{{1, 4}, {2, math.NaN()}, {4, 8}}
	ms := Evaluate([]string{"full", "gappy"}, rows)
	if ms[0].Name != "full" || ms[0].Missing != 0 || ms[0].CI != stats.MeanCI([]float64{1, 2, 4}, 0.95) {
		t.Errorf("full column = %+v", ms[0])
	}
	if ms[1].Name != "gappy" || ms[1].Missing != 1 || ms[1].CI != stats.MeanCI([]float64{4, 8}, 0.95) {
		t.Errorf("gappy column = %+v", ms[1])
	}
}
