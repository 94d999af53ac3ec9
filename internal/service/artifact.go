// Package service is vanetsimd's HTTP layer: simulation-as-a-service
// over the deterministic run engine. Requests arrive as JSON scenario
// configs, are canonicalised and hashed (internal/service/canon), and
// are answered from a persistent content-addressed cache
// (internal/service/cache) when the identical configuration has run
// before. Misses execute on a bounded runner.Queue with per-job cost
// budgets and stream NDJSON progress over chunked HTTP while they run.
//
// The whole design leans on one property the repository has defended
// since its first PR: a run's output is a pure function of its
// canonical configuration — byte-identical at any worker count or
// host. That is what makes a cache hit trustworthy: the
// bytes served from disk are exactly the bytes a fresh run would
// produce (the golden test in golden_test.go proves it end to end).
package service

import (
	"fmt"
	"strings"

	"vanetsim"
	"vanetsim/internal/service/canon"
)

// BuildArtifact executes the canonical configuration and renders its
// deterministic result artifact. progress (optional) receives
// human-readable lines as the run advances; the lines are themselves
// deterministic — no wall-clock, no host data — so a streamed
// transcript is reproducible too.
//
// The artifact embeds the canonical encoding as a header, making every
// cached file self-describing: the exact resolved configuration that
// produced it travels with the bytes.
func BuildArtifact(c *canon.Canonical, progress func(string)) ([]byte, error) {
	return BuildArtifactCached(c, nil, progress)
}

// BuildArtifactCached is BuildArtifact with a per-replication entry
// store. Replication studies look each derived seed up in reps before
// simulating and store what they run, so a resubmission at a tighter
// tolerance re-runs only the additional replications. The entries are
// keyed by canon.RepEntryHash — (base config, seed) only — and the
// rebuilt study is byte-identical to a fresh one, so serving from
// entries is as trustworthy as serving the cached artifact itself. A
// nil store disables entry reuse; other kinds ignore it.
func BuildArtifactCached(c *canon.Canonical, reps RepStore, progress func(string)) ([]byte, error) {
	if progress == nil {
		progress = func(string) {}
	}
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(string(c.AppendBinary(nil)), "\n"), "\n") {
		fmt.Fprintf(&b, "# %s\n", line)
	}
	b.WriteString("\n")

	var err error
	switch c.Kind {
	case canon.KindTrial:
		err = trialArtifact(&b, c, progress)
	case canon.KindDense:
		err = denseArtifact(&b, c, progress)
	case canon.KindDegradation:
		err = degradationArtifact(&b, c, progress)
	case canon.KindReplication:
		err = replicationArtifact(&b, c, reps, progress)
	default:
		err = fmt.Errorf("service: unknown kind %q", c.Kind)
	}
	if err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}

// trialArtifact runs one paper trial and renders the delay,
// throughput, and stopping-distance tables the CLI prints, plus the
// checker verdict and (when telemetry is armed) the metrics snapshot.
func trialArtifact(b *strings.Builder, c *canon.Canonical, progress func(string)) error {
	cfg := c.Trial
	progress(fmt.Sprintf("run %s: %v MAC, %d B packets, %.0f s simulated",
		cfg.Name, cfg.MAC, cfg.PacketSize, float64(cfg.Duration)))
	r := vanetsim.RunTrial(cfg)
	progress(fmt.Sprintf("run %s: complete", cfg.Name))

	b.WriteString(vanetsim.FormatDelayTable(vanetsim.DelayTable(r)))
	b.WriteString("\n")
	b.WriteString(vanetsim.FormatThroughputTable(vanetsim.ThroughputTable(r)))
	b.WriteString("\n")
	b.WriteString(vanetsim.FormatStoppingTable(vanetsim.StoppingTable(r)))
	writeCheckVerdict(b, cfg.Check, r.Violations)
	writeTelemetry(b, r.Telemetry)
	return nil
}

// denseArtifact runs the dense multi-lane highway and renders the
// cmd/vanetsim summary minus its host wall-clock line.
func denseArtifact(b *strings.Builder, c *canon.Canonical, progress func(string)) error {
	cfg := c.Dense
	progress(fmt.Sprintf("dense highway: %v MAC, %d vehicles, %d lanes, %.0f s simulated",
		cfg.MAC, cfg.Vehicles, cfg.Lanes, float64(cfg.Duration)))
	r, err := vanetsim.RunDenseHighway(cfg)
	if err != nil {
		return err
	}
	progress("dense highway: complete")

	fmt.Fprintf(b, "dense highway — %v MAC, %d vehicles, %d lanes, %d platoons, %.0f s simulated\n",
		cfg.MAC, cfg.Vehicles, cfg.Lanes, r.Platoons, float64(cfg.Duration))
	b.WriteString(vanetsim.FormatDenseSummary(r))
	writeCheckVerdict(b, cfg.Check, r.Violations)
	writeTelemetry(b, r.Telemetry)
	return nil
}

// replicationArtifact runs the adaptive-precision study and renders
// its verdict, the achieved bound per stopping metric, and every
// replication's measurements. The rendered study depends only on the
// canonical spec — batch overshoot and cache hit/miss mix never appear
// — so the artifact stays content-addressable even though two
// executions of it may simulate very different amounts of work.
func replicationArtifact(b *strings.Builder, c *canon.Canonical, reps RepStore, progress func(string)) error {
	spec := c.Rep
	cfg := spec.Base
	progress(fmt.Sprintf("replication study %s: %v MAC, tolerance ±%g%%, %d–%d replications",
		cfg.Name, cfg.MAC, 100*spec.Tolerance, spec.MinReps, spec.MaxReps))
	opts := vanetsim.ToleranceOptions{
		MinReps:  spec.MinReps,
		MaxReps:  spec.MaxReps,
		Progress: progress,
	}
	if reps != nil {
		opts.Lookup = func(seed uint64) (vanetsim.Replication, bool) {
			data, ok := reps.Get(c.RepEntryHash(seed).String())
			if !ok {
				return vanetsim.Replication{}, false
			}
			rep, err := decodeRepEntry(seed, data)
			if err != nil {
				// A corrupt entry is a miss, not a failure: re-simulate.
				return vanetsim.Replication{}, false
			}
			return rep, true
		}
		opts.Store = func(rep vanetsim.Replication) {
			// Best-effort: a full or failing entry store must not fail
			// the study, it only costs a future re-run.
			reps.Put(c.RepEntryHash(rep.Seed).String(), encodeRepEntry(rep))
		}
	}
	st, err := vanetsim.RunReplicationsTolerance(cfg, spec.Tolerance, opts)
	if err != nil {
		return err
	}
	verdict := "tolerance met"
	if !st.Met {
		verdict = "budget exhausted"
	}
	progress(fmt.Sprintf("replication study %s: %s after %d replications", cfg.Name, verdict, len(st.Runs)))

	b.WriteString(st.String())
	b.WriteString("\nper-replication measurements:\n")
	fmt.Fprintf(b, "  %-3s %-20s %12s %12s %12s %14s\n",
		"rep", "seed", "avg_delay_s", "steady_s", "first_s", "avg_tput_mbps")
	for i, rep := range st.Runs {
		fmt.Fprintf(b, "  %-3d %-20d %12.6f %12.6f %12.6f %14.6f\n",
			i+1, rep.Seed, rep.AvgDelayS, rep.SteadyS, rep.FirstS, rep.AvgTputMbps)
	}
	if cfg.Check {
		// runReplication fails the whole study on any violation, so
		// reaching here means every replication checked clean.
		b.WriteString("\ninvariant check: clean in every replication\n")
	}
	return nil
}

// degradationArtifact sweeps the loss grid point by point (streaming
// one progress line per point, in grid order) and renders the
// degradation table plus its CSV form.
func degradationArtifact(b *strings.Builder, c *canon.Canonical, progress func(string)) error {
	spec := c.Deg
	cfg := spec.Config()
	cfg.OnPoint = func(i int, p vanetsim.DegradationPoint, _ *vanetsim.TrialResult) error {
		progress(fmt.Sprintf("degradation point %d/%d: loss=%.3f margin=%.2fm safe=%v",
			i+1, len(spec.LossProbs), p.LossProb, p.SafetyMarginM, p.Safe))
		return nil
	}
	points, err := vanetsim.RunDegradation(cfg)
	if err != nil {
		return err
	}
	b.WriteString(vanetsim.FormatDegradationTable(points))
	b.WriteString("\n")
	b.WriteString(vanetsim.DegradationCSV(points))
	var violations []string
	for _, p := range points {
		if p.Violations > 0 {
			violations = append(violations, fmt.Sprintf("loss=%.3f: %d", p.LossProb, p.Violations))
		}
	}
	if spec.Base.Check {
		b.WriteString("\n")
		if len(violations) == 0 {
			b.WriteString("invariant check: clean\n")
		} else {
			fmt.Fprintf(b, "invariant check: violations at %s\n", strings.Join(violations, ", "))
		}
	}
	return nil
}

// writeCheckVerdict appends the invariant checker's verdict when the
// run had checks armed. Violations are listed, not hidden — a cached
// artifact must carry the same bad news a fresh run would print.
func writeCheckVerdict(b *strings.Builder, checked bool, violations []vanetsim.CheckViolation) {
	if !checked {
		return
	}
	b.WriteString("\n")
	if len(violations) == 0 {
		b.WriteString("invariant check: clean\n")
		return
	}
	fmt.Fprintf(b, "invariant check: %d violation(s)\n", len(violations))
	for _, v := range violations {
		fmt.Fprintf(b, "  %s\n", v.Error())
	}
}

// writeTelemetry appends the run's metrics snapshot.
func writeTelemetry(b *strings.Builder, snap *vanetsim.Telemetry) {
	if snap == nil {
		return
	}
	b.WriteString("\nTelemetry:\n")
	b.WriteString(snap.FormatText())
}
