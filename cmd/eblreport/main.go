// Command eblreport regenerates the paper's entire evaluation in one run:
// all three trials, every in-text statistics table, the §III.E analyses,
// and compact ASCII renderings of the figure shapes. Its output is the
// source of the measured numbers in EXPERIMENTS.md.
//
//	eblreport                        # the full report
//	eblreport -j 4                   # fan independent runs across 4 workers
//	eblreport -stats                 # plus per-trial telemetry summaries
//	eblreport -stats-json report.ndjson  # machine-readable trial metrics
//	eblreport -degrade               # only the fault-injection degradation report
//	eblreport -latency-breakdown     # per-component delay decomposition, 802.11 vs TDMA
//	eblreport -tolerance 0.05        # adaptive precision: replicate until every 95% CI is ±5%
//	eblreport -tolerance 0.02 -max-reps 32  # same, with an explicit replication budget
//
// The degradation report sweeps the fault layer's loss axis per MAC and
// tabulates how delay, throughput, and the braking-safety margin erode as
// the channel worsens — the fault-injection analogue of §III.E.
//
// The three trials and the replication study's seeded runs execute on a
// bounded worker pool (-j, default one worker per CPU); results are
// reduced in a fixed order, so the report is byte-identical at every -j.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"vanetsim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "eblreport:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("eblreport", flag.ContinueOnError)
	var (
		jobs      = fs.Int("j", 0, "concurrent simulation runs (0 = one per CPU); output is identical at every -j")
		stats     = fs.Bool("stats", false, "append per-trial telemetry summaries to the report")
		statsJSN  = fs.String("stats-json", "", "write all trials' telemetry as NDJSON to this path")
		degrade   = fs.Bool("degrade", false, "print only the fault-injection degradation report")
		degCSV    = fs.String("degrade-csv", "", "also write the degradation points as CSV to this path")
		checkInv  = fs.Bool("check", false, "arm the runtime invariant checker on every run; non-zero exit on any violation")
		latency   = fs.Bool("latency-breakdown", false, "print only the span-derived latency decomposition (TDMA vs 802.11)")
		tolerance = fs.Float64("tolerance", 0, "print only the adaptive-precision report: replicate until every 95% CI is within this relative half-width (e.g. 0.05 = ±5%)")
		maxReps   = fs.Int("max-reps", 0, "replication budget for -tolerance (0 = 64); the achieved bound is reported if the budget is hit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxReps != 0 && *tolerance == 0 {
		return fmt.Errorf("-max-reps only applies with -tolerance")
	}
	if *tolerance != 0 {
		return toleranceReport(out, *jobs, *tolerance, *maxReps, *checkInv)
	}
	if *latency {
		return latencyBreakdownReport(out, *jobs)
	}
	if *degrade {
		return degradationReport(out, *jobs, *degCSV, *checkInv)
	}
	return reportWith(out, *jobs, *stats, *statsJSN, *checkInv)
}

// toleranceReport is the adaptive-precision evaluation: replications are
// added in batches until every watched 95% CI meets the requested
// relative half-width (or the budget runs out), and two common-random-
// numbers paired comparisons quantify what seed sharing buys. Output is
// byte-identical at every -j and batch size.
func toleranceReport(out io.Writer, jobs int, tol float64, maxReps int, check bool) error {
	fmt.Fprintln(out, "Adaptive-precision replication — run until the CI bound is met")
	fmt.Fprintln(out, "==============================================================")

	pool := vanetsim.Pool{Workers: jobs}

	cfg3 := vanetsim.Trial3()
	cfg3.Duration = vanetsim.Seconds(60)
	cfg3.Check = check
	fmt.Fprintf(out, "\n--- %v: sequential stopping on all four metrics ---\n", cfg3.Name)
	st, err := vanetsim.RunReplicationsTolerance(cfg3, tol, vanetsim.ToleranceOptions{
		MaxReps: maxReps, Pool: pool,
	})
	if err != nil {
		return err
	}
	fmt.Fprint(out, st.String())

	// The paper's MAC comparison under common random numbers. TDMA is
	// deterministic across seeds at this scale, so the paired interval
	// equals the unpaired one — CRN pays off only when both arms share
	// seed-driven noise, which the report states rather than hides.
	cfg1 := vanetsim.Trial1()
	cfg1.Duration = vanetsim.Seconds(60)
	cfg1.Check = check
	fmt.Fprintln(out, "\n--- CRN paired comparison: TDMA (trial1) vs 802.11 (trial3) ---")
	mac, err := vanetsim.RunPairedReplicationsTolerance(cfg1, cfg3, tol, vanetsim.ToleranceOptions{
		MaxReps: maxReps, Pool: pool,
		Metrics: []string{vanetsim.MetricDelay, vanetsim.MetricTput},
	})
	if err != nil {
		return err
	}
	fmt.Fprint(out, mac.String())

	// A packet-size A/B where both arms are 802.11: the same seed drives
	// the same contention pattern in both, so the paired interval
	// tightens. The 40 s window (comms start at t ≈ 20 s) concentrates
	// the seed-driven congestion transient both arms share; over longer
	// runs the steady state dominates and the arms decorrelate.
	cfgA := cfg3
	cfgA.Duration = vanetsim.Seconds(40)
	cfg500 := cfgA
	cfg500.Name = "trial3-500B"
	cfg500.PacketSize = 500
	fmt.Fprintln(out, "\n--- CRN paired comparison: 802.11 1000 B vs 500 B ---")
	// Five replications minimum so the comparison spans the seeds'
	// congestion variability (clamped to a smaller explicit budget).
	minSize := 5
	if maxReps > 0 && maxReps < minSize {
		minSize = maxReps
	}
	size, err := vanetsim.RunPairedReplicationsTolerance(cfgA, cfg500, tol, vanetsim.ToleranceOptions{
		MinReps: minSize, MaxReps: maxReps, Pool: pool,
		Metrics: []string{vanetsim.MetricTput},
	})
	if err != nil {
		return err
	}
	fmt.Fprint(out, size.String())
	fmt.Fprintln(out, "\nA CRN pair tightens only metrics whose noise the arms share; a")
	fmt.Fprintln(out, "deterministic arm (TDMA) leaves the paired width equal to the")
	fmt.Fprintln(out, "unpaired one, so no reduction factor is printed for it.")
	return nil
}

// latencyBreakdownReport runs the paper's MAC comparison (trial 1 vs
// trial 3) with span tracing armed and decomposes each MAC's mean one-way
// delay into the mechanisms behind it: interface-queue residency, MAC
// contention or slot wait, airtime, retransmit gaps, and AODV rerouting.
func latencyBreakdownReport(out io.Writer, jobs int) error {
	fmt.Fprintln(out, "Latency decomposition — span-traced delay components per MAC")
	fmt.Fprintln(out, "=============================================================")

	cfgs := []vanetsim.TrialConfig{vanetsim.Trial1(), vanetsim.Trial3()}
	for i := range cfgs {
		cfgs[i].Spans = true
		// Comms begin around t = 20 s; 40 s covers the interesting window
		// at a fraction of the full run's cost.
		cfgs[i].Duration = vanetsim.Seconds(40)
	}
	all := vanetsim.RunTrials(cfgs, jobs)

	labels := make([]string, len(all))
	aggs := make([]vanetsim.LatencyAggregate, len(all))
	for i, r := range all {
		labels[i] = fmt.Sprintf("%v/%v", r.Config.Name, r.Config.MAC)
		aggs[i] = vanetsim.SummarizeBreakdowns(vanetsim.AnalyzeSpans(r.Spans))
	}
	fmt.Fprintf(out, "\nMean per-delivered-packet components (%.0f s simulated):\n\n",
		float64(cfgs[0].Duration))
	fmt.Fprint(out, vanetsim.FormatLatencyComparison(labels, aggs))
	fmt.Fprintln(out, "\nqueueing = interface-queue residency; contention = TDMA slot wait or")
	fmt.Fprintln(out, "DCF DIFS+backoff; airtime = serialization on the medium; retransmit =")
	fmt.Fprintln(out, "inter-attempt gaps; rerouting = AODV discovery buffering; other =")
	fmt.Fprintln(out, "propagation and inter-layer handoff.")
	return nil
}

// degradationReport sweeps channel loss per MAC and tabulates how delay,
// throughput, and the braking-safety margin erode.
func degradationReport(out io.Writer, jobs int, csvPath string, check bool) error {
	fmt.Fprintln(out, "Degradation under channel loss — fault-injection analogue of §III.E")
	fmt.Fprintln(out, "====================================================================")

	var csv strings.Builder
	for _, mac := range []vanetsim.MACType{vanetsim.MACTDMA, vanetsim.MAC80211} {
		cfg := vanetsim.DefaultDegradation(mac)
		cfg.Jobs = jobs
		cfg.Base.Check = check
		pts, err := vanetsim.RunDegradation(cfg)
		if err != nil {
			return err
		}
		for _, p := range pts {
			if p.Violations > 0 {
				return fmt.Errorf("%v loss=%g: %d invariant violation(s)", mac, p.LossProb, p.Violations)
			}
		}
		fmt.Fprintf(out, "\n%v MAC (independent losses, %.0f s per point):\n",
			mac, float64(cfg.Base.Duration))
		fmt.Fprint(out, vanetsim.FormatDegradationTable(pts))
		if csvPath != "" {
			for _, line := range strings.SplitAfter(vanetsim.DegradationCSV(pts), "\n") {
				if line == "" || (csv.Len() > 0 && strings.HasPrefix(line, "loss_prob,")) {
					continue // one header for the whole file
				}
				if strings.HasPrefix(line, "loss_prob,") {
					csv.WriteString("mac," + line)
					continue
				}
				csv.WriteString(mac.String() + "," + line)
			}
		}
	}
	fmt.Fprintln(out, "\nmargin_m is the 25 m following gap minus the minimum safe gap at the")
	fmt.Fprintln(out, "measured trailing-vehicle indication delay (negative = crash region).")
	if csvPath != "" {
		return os.WriteFile(csvPath, []byte(csv.String()), 0o644)
	}
	return nil
}

// report writes the plain evaluation report (kept for tests and callers
// that don't need telemetry).
func report(out io.Writer) { _ = reportWith(out, 0, false, "", false) }

func reportWith(out io.Writer, jobs int, stats bool, statsJSON string, check bool) error {
	fmt.Fprintln(out, "Extended Brake Lights reproduction — full evaluation report")
	fmt.Fprintln(out, "============================================================")

	telemetry := stats || statsJSON != ""
	cfgs := []vanetsim.TrialConfig{vanetsim.Trial1(), vanetsim.Trial2(), vanetsim.Trial3()}
	for i := range cfgs {
		cfgs[i].Telemetry = telemetry
		cfgs[i].Check = check
	}
	all := vanetsim.RunTrials(cfgs, jobs)
	for _, r := range all {
		if n := len(r.Violations); n > 0 {
			return fmt.Errorf("%v: %d invariant violation(s), first: %v",
				r.Config.Name, n, r.Violations[0].Error())
		}
	}
	r1, r2, r3 := all[0], all[1], all[2]

	for _, r := range all {
		fmt.Fprintf(out, "\n--- %v: %v MAC, %d-byte packets ---\n",
			r.Config.Name, r.Config.MAC, r.Config.PacketSize)
		fmt.Fprintln(out, "\nOne-way delay:")
		fmt.Fprint(out, vanetsim.FormatDelayTable(vanetsim.DelayTable(r)))
		fmt.Fprintln(out, "\nThroughput:")
		fmt.Fprint(out, vanetsim.FormatThroughputTable(vanetsim.ThroughputTable(r)))
	}

	fmt.Fprintln(out, "\n--- §III.E analysis: packet size (trial 1 vs trial 2) ---")
	d1 := r1.Platoon1.MiddleDelays().Summary().Mean
	d2 := r2.Platoon1.MiddleDelays().Summary().Mean
	t1 := r1.Platoon1.Throughput().Summary(r1.Config.Duration).Mean
	t2 := r2.Platoon1.Throughput().Summary(r2.Config.Duration).Mean
	fmt.Fprintf(out, "delay   trial2/trial1 = %.3f  (paper: essentially unchanged)\n", d2/d1)
	fmt.Fprintf(out, "tput    trial2/trial1 = %.3f  (paper: roughly halved)\n", t2/t1)

	fmt.Fprintln(out, "\n--- §III.E analysis: MAC type (trial 1 vs trial 3) ---")
	d3 := r3.Platoon1.MiddleDelays().Summary().Mean
	t3 := r3.Platoon1.Throughput().Summary(r3.Config.Duration).Mean
	fmt.Fprintf(out, "delay   trial1/trial3 = %.1fx  (paper: significantly less under 802.11)\n", d1/d3)
	fmt.Fprintf(out, "tput    trial3/trial1 = %.1fx  (paper: significantly greater under 802.11)\n", t3/t1)

	fmt.Fprintln(out, "\n--- §III.E stopping-distance analysis ---")
	fmt.Fprint(out, vanetsim.FormatStoppingTable(vanetsim.StoppingTable(all...)))

	fmt.Fprintln(out, "\n--- Feasibility envelope (extension of §III.E) ---")
	fmt.Fprintln(out, "Minimum safe following gap vs speed, with realistic braking")
	fmt.Fprintln(out, "(7 m/s² both vehicles, 0.7 s reaction, 5 m margin), using each")
	fmt.Fprintln(out, "MAC's measured initial-packet indication delay (trailing vehicle):")
	fT, _ := r1.Platoon1.TrailingDelays().First()
	fD, _ := r3.Platoon1.TrailingDelays().First()
	speeds := []float64{10, 15, 20, vanetsim.MPHToMS(50), 25, 30, 35}
	rows := vanetsim.FeasibilityEnvelope(vanetsim.DefaultBrakingModel(), fT, fD, speeds)
	fmt.Fprint(out, vanetsim.FormatEnvelopeTable(rows))

	fmt.Fprintln(out, "\n--- Replication study (methodology upgrade over the paper) ---")
	fmt.Fprintln(out, "The paper analyses one run with batch means; independent seeded")
	fmt.Fprintln(out, "replications capture run-to-run variability too:")
	repCfg := vanetsim.Trial3()
	repCfg.Duration = vanetsim.Seconds(60)
	study, err := vanetsim.RunReplicationsPool(repCfg, []uint64{1, 2, 3, 4, 5}, vanetsim.Pool{Workers: jobs})
	if err != nil {
		return err
	}
	fmt.Fprint(out, study.String())

	fmt.Fprintln(out, "\n--- Figure shapes (ASCII) ---")
	for _, f := range []vanetsim.Figure{
		vanetsim.Fig5(r1), vanetsim.Fig7(r1),
		vanetsim.Fig8(r2), vanetsim.Fig10(r2),
		vanetsim.Fig11(r3), vanetsim.Fig15(r3),
	} {
		fmt.Fprintln(out)
		fmt.Fprint(out, f.ASCII(70, 12))
	}

	if stats {
		fmt.Fprintln(out, "\n--- Telemetry (per trial) ---")
		for _, r := range all {
			fmt.Fprintf(out, "\n%v:\n", r.Config.Name)
			fmt.Fprint(out, r.Telemetry.FormatText())
		}
	}
	if statsJSON != "" {
		f, err := os.Create(statsJSON)
		if err != nil {
			return err
		}
		for _, r := range all {
			if _, err := fmt.Fprintf(f, "{\"kind\":\"run\",\"trial\":%q}\n", r.Config.Name); err != nil {
				f.Close()
				return err
			}
			if err := r.Telemetry.NDJSON(f); err != nil {
				f.Close()
				return err
			}
		}
		return f.Close()
	}
	return nil
}
