// Package seqstop implements sequential-stopping replication control:
// grow a replication set in batches and stop as soon as every watched
// metric's Student-t confidence interval meets a requested relative
// half-width, or a replication budget runs out — reporting the achieved
// bound either way.
//
// The engine is deliberately decoupled from what a "replication" is: a
// caller supplies a function mapping replication index i to a vector of
// metric samples (NaN marks a metric unobservable in that replication),
// and the engine owns batching, parallel fan-out, CI recomputation, and
// the stopping decision.
//
// # Determinism contract
//
// The stopping index is
//
//	N* = min{ k : MinReps ≤ k ≤ MaxReps, every metric's CI over
//	           replications [0, k) meets Tolerance }
//
// (or MaxReps if no such k exists). Replications run in batches of
// BatchSize, and replication i is required to be a pure function of i —
// in practice, of the i-th deterministically derived seed — so N* does
// not depend on the worker-pool width or on how far past N* a batch
// overshot. After each batch the engine scans candidate prefixes in
// increasing order and truncates the study to the earliest qualifying
// prefix, so the returned study is byte-identical at any -j. The number
// of replications actually executed (Result.Executed) includes the
// overshoot; it exists for cost accounting and must never be rendered
// into a deterministic artifact.
package seqstop

import (
	"fmt"
	"math"

	"vanetsim/internal/runner"
	"vanetsim/internal/sim"
	"vanetsim/internal/stats"
)

// The confidence level of every interval, and how many replications run
// between CI recomputations.
const (
	Level     = 0.95
	BatchSize = 4
)

// Defaults Resolve applies to zero-valued Config fields.
const (
	defaultMinReps = 4
	defaultMaxReps = 64
)

// Config controls a sequential-stopping run.
type Config struct {
	// Metrics names the watched metrics, one per sample-vector column.
	Metrics []string
	// Tolerance is the requested relative half-width (0.05 = ±5%) every
	// metric must meet. Must be a finite positive value.
	Tolerance float64
	// MinReps is the smallest prefix a verdict may use (0 = 4; ≥ 2 —
	// no interval exists on fewer samples).
	MinReps int
	// MaxReps is the replication budget (0 = 64).
	MaxReps int
	// Pool fans a batch's replications across workers; every pool size
	// produces identical output.
	Pool runner.Pool
	// Progress, if non-nil, receives one line per non-final batch. The
	// lines depend only on the fixed batch boundaries and the sample
	// values, so progress is deterministic.
	Progress func(string)
}

// MetricResult is one watched metric's state at the stopping point.
type MetricResult struct {
	Name string
	CI   stats.CI
	// Missing counts replications in which the metric was unobservable
	// (NaN sample); the CI covers the observed remainder.
	Missing int
}

// Result is a sequential-stopping verdict.
type Result struct {
	// N is the number of replications the verdict uses — the study is
	// exactly the first N replications. Deterministic (see the package
	// contract).
	N int
	// Executed is how many replications actually ran, including batch
	// overshoot past N. Execution detail only: it must not appear in
	// deterministic artifacts.
	Executed int
	// Met reports whether every metric met the tolerance (false means
	// the budget was exhausted; Metrics still carries the achieved
	// bounds).
	Met bool
	// Metrics holds the per-metric CIs over the first N replications,
	// in Config.Metrics order.
	Metrics []MetricResult
	// Samples holds the first N replications' sample vectors.
	Samples [][]float64
}

// Run executes the sequential-stopping loop. rep(i) must return one
// sample per configured metric for replication i, as a pure function of
// i; NaN samples mark that metric unobservable in that replication.
func Run(cfg Config, rep func(i int) ([]float64, error)) (*Result, error) {
	if len(cfg.Metrics) == 0 {
		return nil, fmt.Errorf("seqstop: no metrics to watch")
	}
	cfg, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	progress := cfg.Progress
	if progress == nil {
		progress = func(string) {}
	}
	allMet := func(ms []MetricResult) bool {
		for _, m := range ms {
			if !m.CI.Met(cfg.Tolerance) {
				return false
			}
		}
		return true
	}

	samples := make([][]float64, 0, cfg.MaxReps)
	executed := 0
	scanFrom := cfg.MinReps
	for executed < cfg.MaxReps {
		n := BatchSize
		if executed+n > cfg.MaxReps {
			n = cfg.MaxReps - executed
		}
		base := executed
		out, err := runner.Map(cfg.Pool, n, func(k int) ([]float64, error) {
			v, err := rep(base + k)
			if err != nil {
				return nil, err
			}
			if len(v) != len(cfg.Metrics) {
				return nil, fmt.Errorf("seqstop: replication %d returned %d samples for %d metrics", base+k, len(v), len(cfg.Metrics))
			}
			return v, nil
		})
		if err != nil {
			return nil, err
		}
		samples = append(samples, out...)
		executed += n
		// Scan candidate prefixes in increasing order so the verdict is
		// the EARLIEST qualifying k, independent of where this batch's
		// boundary happened to land.
		for k := scanFrom; k <= executed; k++ {
			if ms := Evaluate(cfg.Metrics, samples[:k]); allMet(ms) {
				return &Result{N: k, Executed: executed, Met: true, Metrics: ms, Samples: samples[:k]}, nil
			}
		}
		// Only ever raise the scan cursor: a batch that ends before
		// MinReps must not lower it below the minimum.
		if executed+1 > scanFrom {
			scanFrom = executed + 1
		}
		if executed < cfg.MaxReps {
			ms := Evaluate(cfg.Metrics, samples)
			progress(fmt.Sprintf("replications %d/%d: tolerance ±%g%% not met yet (worst: %s)",
				executed, cfg.MaxReps, 100*cfg.Tolerance, worst(ms)))
		}
	}
	// Budget exhausted: report the achieved bound over the full budget.
	ms := Evaluate(cfg.Metrics, samples)
	return &Result{N: executed, Executed: executed, Met: allMet(ms), Metrics: ms, Samples: samples}, nil
}

// Resolve returns cfg with the defaults (4 and 64) in place of a zero
// MinReps or MaxReps, or an error if no study can satisfy the
// rule: a tolerance that is not a positive finite relative half-width,
// MinReps below 2 (no interval exists on fewer samples) or MaxReps below
// MinReps. It is the one home of the stopping-rule defaults and checks;
// Run applies it, and callers that must know the resolved budget before
// running (the seed stream, the service's cache key) call it directly.
func (cfg Config) Resolve() (Config, error) {
	if !(cfg.Tolerance > 0) || math.IsInf(cfg.Tolerance, 1) {
		return Config{}, fmt.Errorf("seqstop: tolerance %v is not a positive finite relative half-width", cfg.Tolerance)
	}
	if cfg.MinReps == 0 {
		cfg.MinReps = defaultMinReps
	}
	if cfg.MinReps < 2 {
		return Config{}, fmt.Errorf("seqstop: MinReps %d < 2: no confidence interval exists on fewer than two replications", cfg.MinReps)
	}
	if cfg.MaxReps == 0 {
		cfg.MaxReps = defaultMaxReps
	}
	if cfg.MaxReps < cfg.MinReps {
		return Config{}, fmt.Errorf("seqstop: MaxReps %d < MinReps %d", cfg.MaxReps, cfg.MinReps)
	}
	return cfg, nil
}

// Evaluate computes each named metric's Level CI over the observed
// (non-NaN) samples of its column — the one confidence-interval path
// shared by sequential-stopping and fixed-seed studies.
func Evaluate(names []string, samples [][]float64) []MetricResult {
	out := make([]MetricResult, len(names))
	col := make([]float64, len(samples))
	for j, name := range names {
		for i, s := range samples {
			col[i] = s[j]
		}
		ci, missing := stats.MeanCIObserved(col, Level)
		out[j] = MetricResult{Name: name, CI: ci, Missing: missing}
	}
	return out
}

// worst renders the least-converged metric for progress lines. Non-finite
// precision (zero/NaN mean, n<2) sorts as least converged.
func worst(ms []MetricResult) string {
	idx, idxP := 0, -1.0
	for i, m := range ms {
		p := m.CI.RelPrecision()
		if math.IsNaN(p) || math.IsInf(p, 0) {
			p = math.Inf(1)
		}
		if p > idxP {
			idx, idxP = i, p
		}
	}
	m := ms[idx]
	p := m.CI.RelPrecision()
	if math.IsNaN(p) || math.IsInf(p, 0) {
		if m.Missing > 0 {
			return fmt.Sprintf("%s unobserved in %d replication(s)", m.Name, m.Missing)
		}
		return fmt.Sprintf("%s precision unbounded", m.Name)
	}
	return fmt.Sprintf("%s ±%.2f%%", m.Name, 100*p)
}

// Seeds returns the first n replication seeds derived from base: a
// labelled RNG stream forked off the base seed, with zero and any
// duplicate draws skipped (the splitmix64 stream makes duplicates
// astronomically unlikely, but a duplicate seed would double-count a
// run and artificially narrow every CI, so the stream is deduplicated
// by construction). Seeds(base, n) is a prefix of Seeds(base, m) for
// n ≤ m, which is what makes replication i a pure function of i: the
// same base seed yields the same i-th replication at any worker count
// or tolerance.
func Seeds(base uint64, n int) []uint64 {
	rng := sim.NewRNG(base).Fork("replication/seeds")
	seen := make(map[uint64]bool, n)
	out := make([]uint64, 0, n)
	for len(out) < n {
		s := rng.Uint64()
		if s == 0 || seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	return out
}
