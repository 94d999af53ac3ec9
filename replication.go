package vanetsim

import (
	"fmt"
	"math"
	"strings"

	"vanetsim/internal/runner"
	"vanetsim/internal/stats"
	"vanetsim/internal/stats/seqstop"
)

// Replication is one independent run's headline measurements.
type Replication struct {
	Seed        uint64
	AvgDelayS   float64 // platoon-1 middle-vehicle mean one-way delay
	SteadyS     float64 // its steady-state level
	FirstS      float64 // trailing vehicle's initial-packet delay; NaN if it never received a packet
	AvgTputMbps float64 // platoon-1 average throughput
}

// Stopping-metric names for ToleranceOptions.Metrics — also the row
// labels every study report prints.
const (
	MetricDelay  = "avg delay"
	MetricSteady = "steady delay"
	MetricFirst  = "initial pkt"
	MetricTput   = "avg throughput"
)

// MetricPrecision is one stopping metric's achieved confidence interval
// and missing-sample count.
type MetricPrecision = seqstop.MetricResult

// stoppingMetric is one stopping metric: its name, display unit and the
// replication measurement it reads.
type stoppingMetric struct {
	name, unit string
	of         func(Replication) float64
}

// stoppingMetrics is the one table of stopping metrics, in report order.
var stoppingMetrics = []stoppingMetric{
	{MetricDelay, "s", func(r Replication) float64 { return r.AvgDelayS }},
	{MetricSteady, "s", func(r Replication) float64 { return r.SteadyS }},
	{MetricFirst, "s", func(r Replication) float64 { return r.FirstS }},
	{MetricTput, "Mbps", func(r Replication) float64 { return r.AvgTputMbps }},
}

// allMetrics is the default stopping-metric set, in report order.
func allMetrics() []string {
	names := make([]string, len(stoppingMetrics))
	for i, m := range stoppingMetrics {
		names[i] = m.name
	}
	return names
}

// metricNamed looks a stopping metric up by name.
func metricNamed(name string) (stoppingMetric, bool) {
	for _, m := range stoppingMetrics {
		if m.name == name {
			return m, true
		}
	}
	return stoppingMetric{}, false
}

// metricUnit returns the display unit for a stopping metric.
func metricUnit(name string) string {
	m, _ := metricNamed(name)
	return m.unit
}

// measure extracts one finished run's headline measurements.
//
// A run in which the trailing vehicle never receives a packet (for
// example, a duration too short for communication to start) yields a NaN
// FirstS: an explicit missing-sample marker, never a silent 0.0 s
// indication delay.
func measure(seed uint64, r *TrialResult) Replication {
	d := r.Platoon1.MiddleDelays()
	_, steady := d.SteadyState()
	firstS := math.NaN()
	if first, ok := r.Platoon1.TrailingDelays().First(); ok {
		firstS = float64(first)
	}
	return Replication{
		Seed:        seed,
		AvgDelayS:   d.Summary().Mean,
		SteadyS:     steady,
		FirstS:      firstS,
		AvgTputMbps: r.Platoon1.Throughput().Summary(r.Config.Duration).Mean,
	}
}

// sampleVector maps a replication's measurements onto the chosen
// (validated) stopping metrics, in order.
func sampleVector(metrics []string, rep Replication) []float64 {
	out := make([]float64, len(metrics))
	for j, name := range metrics {
		m, _ := metricNamed(name)
		out[j] = m.of(rep)
	}
	return out
}

func validateMetrics(metrics []string) error {
	for _, name := range metrics {
		if _, ok := metricNamed(name); !ok {
			return fmt.Errorf("vanetsim: unknown stopping metric %q (valid: %q)", name, allMetrics())
		}
	}
	return nil
}

// ReplicationStudy re-runs a trial configuration across independent seeds
// and reports cross-replication confidence intervals — the methodology
// upgrade over the paper's single-run-with-batch-means analysis (batch
// means within one run cannot capture run-to-run variability).
type ReplicationStudy struct {
	Config TrialConfig
	Runs   []Replication
	// Metrics holds one 95% CI per stopping metric over Runs: every
	// metric in report order for a fixed-seed study, the watched metrics
	// in the requested order for a ToleranceStudy. A metric's CI covers
	// the replications that observed it and Missing counts the others;
	// only the initial-packet delay can be missing, when the trailing
	// vehicle never received a packet (all missing: the CI is the
	// explicit NaN/+Inf marker).
	Metrics []MetricPrecision
}

// aggregate computes every stopping metric's CI over Runs, through the
// same evaluator sequential-stopping studies use.
func (s *ReplicationStudy) aggregate() {
	metrics := allMetrics()
	rows := make([][]float64, len(s.Runs))
	for i, rep := range s.Runs {
		rows[i] = sampleVector(metrics, rep)
	}
	s.Metrics = seqstop.Evaluate(metrics, rows)
}

// RunReplicationsPool executes cfg once per seed on a bounded worker pool
// (the zero Pool is one worker per CPU) and aggregates 95% CIs. Results
// and CIs are reduced in seed order, so every pool size produces
// identical output. It returns an error if fewer than two seeds are
// given (no interval exists) or any seed repeats (a duplicate
// double-counts a run and artificially narrows every interval), and,
// like RunReplicationsTolerance, if a run that arms cfg.Check violates
// an invariant.
func RunReplicationsPool(cfg TrialConfig, seeds []uint64, p runner.Pool) (*ReplicationStudy, error) {
	if len(seeds) < 2 {
		return nil, fmt.Errorf("vanetsim: replication study needs at least two seeds, got %d", len(seeds))
	}
	seen := make(map[uint64]struct{}, len(seeds))
	for _, s := range seeds {
		if _, dup := seen[s]; dup {
			return nil, fmt.Errorf("vanetsim: duplicate replication seed %d: replications must be independent runs (a duplicate double-counts and artificially narrows the CIs)", s)
		}
		seen[s] = struct{}{}
	}
	runs, err := runner.Map(p, len(seeds), func(i int) (Replication, error) {
		return runReplication(cfg, seeds[i], ToleranceOptions{})
	})
	if err != nil {
		return nil, err
	}
	st := &ReplicationStudy{Config: cfg, Runs: runs}
	st.aggregate()
	return st, nil
}

// String renders the study as a compact report.
func (s *ReplicationStudy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v over %d replications (95%% CIs):\n", s.Config, len(s.Runs))
	for _, m := range s.Metrics {
		fmt.Fprintf(&b, "  %-14s %.4f ± %.4f %s", m.Name, m.CI.Mean, m.CI.HalfWidth, metricUnit(m.Name))
		if m.Missing > 0 {
			fmt.Fprintf(&b, "  (missing in %d/%d replications)", m.Missing, len(s.Runs))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ToleranceOptions tunes RunReplicationsTolerance and
// RunPairedReplicationsTolerance. The zero value is ready to use: all
// four metrics watched, 4–64 replications in batches of 4 on a
// machine-sized pool. Seeds are always derived from the config's own
// seed through seqstop.Seeds: deduplicated, never zero, and
// prefix-stable, so replication i always runs the same seed regardless
// of workers or tolerance.
type ToleranceOptions struct {
	// MinReps is the smallest usable study (0 = 4; at least 2).
	MinReps int
	// MaxReps is the replication budget (0 = 64).
	MaxReps int
	// Metrics selects the stopping metrics — MetricDelay, MetricSteady,
	// MetricFirst, MetricTput (nil = all four). The study stops only
	// when every selected metric meets the tolerance.
	Metrics []string
	// Pool fans replications across workers; output is identical at any
	// size.
	Pool Pool
	// Progress, if non-nil, receives one line per non-final batch.
	Progress func(string)
	// Lookup, if non-nil, is consulted before a replication is
	// simulated — the service's per-replication cache. Store receives
	// every freshly simulated replication. Both may be called
	// concurrently from pool workers and must be safe for that.
	Lookup func(seed uint64) (Replication, bool)
	Store  func(Replication)
}

// ToleranceStudy is a sequential-stopping study's outcome: a
// ReplicationStudy over exactly the replications the verdict uses, whose
// Metrics are the achieved precision per watched stopping metric, plus
// the requested tolerance.
type ToleranceStudy struct {
	ReplicationStudy
	// Tolerance is the requested relative half-width (0.05 = ±5%).
	Tolerance float64
	// Met reports whether every stopping metric reached the tolerance;
	// false means the MaxReps budget was exhausted, and Metrics still
	// carries the achieved bounds.
	Met bool
	// Executed counts replications actually simulated (or recalled from
	// a cache), including batch overshoot past the stopping point — an
	// execution detail for cost accounting, deliberately excluded from
	// String().
	Executed int
}

// RunReplicationsTolerance grows a replication study until every chosen
// metric's 95% CI relative half-width is at most tol, or the MaxReps
// budget is exhausted — the sequential-stopping upgrade over a fixed
// seed list ("give me this answer to ±2%"). Seeds are forked
// deterministically from cfg.Seed, so the returned study is
// byte-identical at any pool width.
//
// A run that arms cfg.Check and violates an invariant fails the study
// with an error: a measurement from a run that broke conservation is
// not evidence.
func RunReplicationsTolerance(cfg TrialConfig, tol float64, opts ToleranceOptions) (*ToleranceStudy, error) {
	rule, seeds, err := opts.stoppingRule(tol, cfg.Seed)
	if err != nil {
		return nil, err
	}
	reps := make([]Replication, len(seeds))
	res, err := seqstop.Run(rule, func(i int) ([]float64, error) {
		rep, err := runReplication(cfg, seeds[i], opts)
		if err != nil {
			return nil, err
		}
		reps[i] = rep
		return sampleVector(rule.Metrics, rep), nil
	})
	if err != nil {
		return nil, err
	}
	return &ToleranceStudy{
		ReplicationStudy: ReplicationStudy{
			Config:  cfg,
			Runs:    append([]Replication(nil), reps[:res.N]...),
			Metrics: res.Metrics,
		},
		Tolerance: tol,
		Met:       res.Met,
		Executed:  res.Executed,
	}, nil
}

// stoppingRule resolves opts into the sequential-stopping configuration
// (stopping metrics, budget, pool, progress) and the seed stream derived
// from base that replication i runs under.
func (opts ToleranceOptions) stoppingRule(tol float64, base uint64) (seqstop.Config, []uint64, error) {
	metrics := opts.Metrics
	if metrics == nil {
		metrics = allMetrics()
	}
	if err := validateMetrics(metrics); err != nil {
		return seqstop.Config{}, nil, err
	}
	rule, err := seqstop.Config{
		Metrics:   metrics,
		Tolerance: tol,
		MinReps:   opts.MinReps,
		MaxReps:   opts.MaxReps,
		Pool:      opts.Pool,
		Progress:  opts.Progress,
	}.Resolve()
	if err != nil {
		return seqstop.Config{}, nil, err
	}
	return rule, seqstop.Seeds(base, rule.MaxReps), nil
}

// runReplication produces one replication: from the cache hooks when
// present, otherwise by simulating.
func runReplication(cfg TrialConfig, seed uint64, opts ToleranceOptions) (Replication, error) {
	if opts.Lookup != nil {
		if rep, ok := opts.Lookup(seed); ok {
			return rep, nil
		}
	}
	c := cfg
	c.Seed = seed
	r := RunTrial(c)
	if n := len(r.Violations); n > 0 {
		return Replication{}, fmt.Errorf("vanetsim: replication seed %d: %d invariant violation(s), first: %v", seed, n, r.Violations[0])
	}
	rep := measure(seed, r)
	if opts.Store != nil {
		opts.Store(rep)
	}
	return rep, nil
}

// String renders the study with its achieved precision per stopping
// metric. Everything printed is independent of the pool width (Executed
// is deliberately omitted).
func (s *ToleranceStudy) String() string {
	var b strings.Builder
	verdict := "met"
	if !s.Met {
		verdict = "NOT met (budget exhausted)"
	}
	fmt.Fprintf(&b, "%v adaptive study — tolerance ±%g%% %s after %d replications (95%% CIs):\n",
		s.Config, 100*s.Tolerance, verdict, len(s.Runs))
	for _, m := range s.Metrics {
		fmt.Fprintf(&b, "  %-14s %.4f ± %.4f %-4s (achieved ±%s", m.Name, m.CI.Mean, m.CI.HalfWidth, metricUnit(m.Name), relPct(m.CI))
		if m.Missing > 0 {
			fmt.Fprintf(&b, ", missing in %d/%d replications", m.Missing, len(s.Runs))
		}
		b.WriteString(")\n")
	}
	return b.String()
}

// relPct formats a CI's relative precision as a percentage, keeping the
// non-finite markers readable.
func relPct(ci stats.CI) string {
	p := ci.RelPrecision()
	switch {
	case math.IsNaN(p):
		return "n/a (no observed samples)"
	case math.IsInf(p, 0):
		return "unbounded"
	default:
		return fmt.Sprintf("%.2f%%", 100*p)
	}
}

// PairedReplication is one seed's measurements under both arms of a
// common-random-numbers comparison: the same derived seed drives arm A
// and arm B, so their per-layer RNG streams (labelled forks of the run
// seed) match wherever the configurations share components.
type PairedReplication struct {
	Seed uint64
	A, B Replication
}

// PairedMetric is one stopping metric's paired-difference analysis.
type PairedMetric struct {
	Name string
	// MeanA and MeanB are the per-arm means over pairs where both arms
	// observed the metric.
	MeanA, MeanB float64
	// DiffCI is the 95% CI on the mean of the paired differences
	// d_i = A_i − B_i; with common random numbers its width shrinks by
	// the covariance the shared seeds induce.
	DiffCI stats.CI
	// Missing counts pairs where either arm missed the metric; DiffCI
	// covers the remaining pairs.
	Missing int
	// UnpairedHalfWidth is the half-width an independent-samples
	// (unpaired) comparison over the same replications would have
	// reported: t·sqrt(s_A² + s_B²)/√n. The ratio
	// UnpairedHalfWidth/DiffCI.HalfWidth is the CRN variance-reduction
	// factor.
	UnpairedHalfWidth float64
}

// VarianceReduction returns UnpairedHalfWidth / DiffCI.HalfWidth — how
// many times tighter the CRN paired interval is than an unpaired
// comparison of the same runs. NaN if either width is degenerate.
func (m PairedMetric) VarianceReduction() float64 {
	if !(m.DiffCI.HalfWidth > 0) || math.IsInf(m.DiffCI.HalfWidth, 1) || !(m.UnpairedHalfWidth > 0) {
		return math.NaN()
	}
	return m.UnpairedHalfWidth / m.DiffCI.HalfWidth
}

// PairedStudy is a sequential-stopping common-random-numbers comparison
// between two trial configurations.
type PairedStudy struct {
	ConfigA, ConfigB TrialConfig
	Tolerance        float64
	Met              bool
	Runs             []PairedReplication
	Diffs            []PairedMetric
	// Executed is the execution-only overshoot count (see
	// ToleranceStudy.Executed).
	Executed int
}

// RunPairedReplicationsTolerance runs a CRN paired comparison: each
// derived seed drives both configurations, and the study grows until the
// 95% CI on every chosen metric's paired difference (A − B) meets the
// relative tolerance, or the budget is exhausted. The stopping rule and
// determinism contract match RunReplicationsTolerance; seeds derive from
// cfgA.Seed. opts.Lookup/Store are ignored (cache entries are keyed per
// single-arm config — the service caches arms, not pairs).
func RunPairedReplicationsTolerance(cfgA, cfgB TrialConfig, tol float64, opts ToleranceOptions) (*PairedStudy, error) {
	rule, seeds, err := opts.stoppingRule(tol, cfgA.Seed)
	if err != nil {
		return nil, err
	}
	pairs := make([]PairedReplication, len(seeds))
	noCache := opts
	noCache.Lookup, noCache.Store = nil, nil
	res, err := seqstop.Run(rule, func(i int) ([]float64, error) {
		a, err := runReplication(cfgA, seeds[i], noCache)
		if err != nil {
			return nil, err
		}
		b, err := runReplication(cfgB, seeds[i], noCache)
		if err != nil {
			return nil, err
		}
		pairs[i] = PairedReplication{Seed: seeds[i], A: a, B: b}
		va, vb := sampleVector(rule.Metrics, a), sampleVector(rule.Metrics, b)
		d := make([]float64, len(va))
		for j := range va {
			d[j] = va[j] - vb[j] // NaN if either arm missed: a pair is observed only whole
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	st := &PairedStudy{
		ConfigA:   cfgA,
		ConfigB:   cfgB,
		Tolerance: tol,
		Met:       res.Met,
		Runs:      append([]PairedReplication(nil), pairs[:res.N]...),
		Executed:  res.Executed,
	}
	st.Diffs = pairedMetrics(rule.Metrics, res, st.Runs)
	return st, nil
}

// pairedMetrics augments the engine's paired-difference CIs with per-arm
// means and the unpaired comparison width over the same pairs.
func pairedMetrics(metrics []string, res *seqstop.Result, runs []PairedReplication) []PairedMetric {
	out := make([]PairedMetric, len(metrics))
	for j, name := range metrics {
		pm := PairedMetric{Name: name, DiffCI: res.Metrics[j].CI, Missing: res.Metrics[j].Missing}
		m, _ := metricNamed(name)
		var as, bs []float64
		for _, pr := range runs {
			a, b := m.of(pr.A), m.of(pr.B)
			if math.IsNaN(a) || math.IsNaN(b) {
				continue
			}
			as = append(as, a)
			bs = append(bs, b)
		}
		if n := len(as); n >= 2 {
			sa, sb := stats.Summarize(as), stats.Summarize(bs)
			pm.MeanA, pm.MeanB = sa.Mean, sb.Mean
			t := stats.TQuantile(1-(1-0.95)/2, n-1)
			pm.UnpairedHalfWidth = t * math.Sqrt(sa.Std*sa.Std+sb.Std*sb.Std) / math.Sqrt(float64(n))
		} else if n == 1 {
			pm.MeanA, pm.MeanB = as[0], bs[0]
			pm.UnpairedHalfWidth = math.Inf(1)
		}
		out[j] = pm
	}
	return out
}

// String renders the paired comparison: per-metric arm means, the paired
// CRN interval on the difference, the unpaired interval the same runs
// would have given, and the variance-reduction factor. Independent of
// the pool width.
func (s *PairedStudy) String() string {
	var b strings.Builder
	verdict := "met"
	if !s.Met {
		verdict = "NOT met (budget exhausted)"
	}
	fmt.Fprintf(&b, "CRN paired study %v vs %v — tolerance ±%g%% %s after %d paired replications (95%% CIs on A−B):\n",
		s.ConfigA, s.ConfigB, 100*s.Tolerance, verdict, len(s.Runs))
	for _, m := range s.Diffs {
		unit := metricUnit(m.Name)
		fmt.Fprintf(&b, "  %-14s A %.4f  B %.4f  diff %.4f ± %.4f %-4s (achieved ±%s", m.Name, m.MeanA, m.MeanB, m.DiffCI.Mean, m.DiffCI.HalfWidth, unit, relPct(m.DiffCI))
		if m.Missing > 0 {
			fmt.Fprintf(&b, ", missing in %d/%d pairs", m.Missing, len(s.Runs))
		}
		b.WriteString(")\n")
		if vr := m.VarianceReduction(); !math.IsNaN(vr) {
			fmt.Fprintf(&b, "  %-14s unpaired would be ± %.4f %s — CRN pairing is %.2f× tighter\n", "", m.UnpairedHalfWidth, unit, vr)
		}
	}
	return b.String()
}
