// Command eblsweep explores the scenario parameter space around the
// paper's fixed operating point (50 mph, 25 m, 3 vehicles): a
// speed × gap safety matrix per MAC built from measured indication
// delays, and a MAC × packet-size performance sweep.
//
//	eblsweep            # both sweeps with defaults
//	eblsweep -safety    # only the safety matrix
//	eblsweep -perf      # only the performance sweep
//	eblsweep -j 8       # fan runs across 8 workers (default: all CPUs)
//	eblsweep -stats     # add per-run telemetry to the progress lines
//	eblsweep -check     # runtime invariant checker on every run
//	eblsweep -stats-json runs.ndjson  # append all runs' metrics, NDJSON
//
// The degradation sweep drives the fault-injection layer across its three
// axes — stationary loss probability, mean burst length, and an optional
// radio-outage window — and reports delay, throughput, and safety margin
// at each point:
//
//	eblsweep -degrade
//	eblsweep -degrade -degrade-loss 0,0.1,0.3 -degrade-burst 1,4,16
//	eblsweep -degrade -degrade-outage 1:22:5   # node 1 down for [22s, 27s)
//
// Runs fan out across a bounded worker pool (-j), but all output is
// reduced in submission order: stdout tables, the stderr progress
// stream, and the NDJSON file are byte-identical at every -j, so
// parallelism is purely a wall-clock win.
//
// Per-run progress lines go to stderr so the tables on stdout stay
// machine-readable.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"vanetsim"
	"vanetsim/internal/cliflag"
	"vanetsim/internal/prof"
	"vanetsim/internal/runner"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "eblsweep:", err)
		os.Exit(1)
	}
}

// sweepOpts carries the run-engine and telemetry switches into the
// sweep loops.
type sweepOpts struct {
	jobs  int       // worker-pool size; <= 0 means one worker per CPU
	stats bool      // per-run telemetry summaries on the progress stream
	check bool      // arm the runtime invariant checker on every run
	jsonW io.Writer // NDJSON sink for every run's snapshot (nil = off)
	// progress receives per-run progress lines (stderr by default; tests
	// silence or capture it). Writes happen only from the pool's ordered
	// reducer, wrapped in a SyncWriter so no other writer can interleave.
	progress io.Writer
}

func (o sweepOpts) telemetry() bool { return o.stats || o.jsonW != nil }

func run(args []string, out io.Writer) error {
	return runWith(args, out, os.Stderr)
}

// runWith is run with an explicit progress sink, so tests can capture
// or silence the per-run progress stream.
func runWith(args []string, out, progress io.Writer) (err error) {
	fs := flag.NewFlagSet("eblsweep", flag.ContinueOnError)
	var (
		safetyOnly = fs.Bool("safety", false, "print only the safety matrix")
		perfOnly   = fs.Bool("perf", false, "print only the performance sweep")
		duration   = fs.Float64("duration", 80, "simulated seconds per run")
		jobs       = fs.Int("j", 0, "concurrent simulation runs (0 = one per CPU); output is identical at every -j")
		stats      = fs.Bool("stats", false, "add per-run telemetry to the progress lines")
		checkInv   = fs.Bool("check", false, "arm the runtime invariant checker on every run; non-zero exit on any violation")
		statsJSN   = fs.String("stats-json", "", "append every run's telemetry as NDJSON to this path")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile to this path")
		memProf    = fs.String("memprofile", "", "write an allocation profile to this path")
		degrade    = fs.Bool("degrade", false, "run only the fault-injection degradation sweep")
		degLoss    = fs.String("degrade-loss", "0,0.02,0.05,0.1,0.2", "comma-separated stationary loss probabilities")
		degBurst   = fs.String("degrade-burst", "1,4", "comma-separated mean burst lengths (1 = independent losses)")
		degOutage  = fs.String("degrade-outage", "", "radio outage applied at every point, as node:start:duration")
		degMAC     = fs.String("degrade-mac", "tdma", "MAC for the degradation sweep: tdma or 802.11")
	)
	if err := cliflag.Parse(fs, args); err != nil {
		return err
	}
	// 0 stays accepted: it runs nothing, and the safety matrix then
	// reports the missing indication delay itself.
	if d := *duration; math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
		return fmt.Errorf("invalid -duration %v: want finite seconds >= 0", d)
	}
	switch {
	case *safetyOnly && *perfOnly:
		return fmt.Errorf("-safety and -perf each select one sweep: give one, or neither for both")
	case *degrade && (*safetyOnly || *perfOnly):
		return fmt.Errorf("-degrade runs only the degradation sweep: it does not take -safety or -perf")
	case !*degrade:
		if set := cliflag.Set(fs, "degrade-loss", "degrade-burst", "degrade-outage", "degrade-mac"); len(set) > 0 {
			return fmt.Errorf("%s: only valid with -degrade", strings.Join(set, ", "))
		}
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if e := stopProf(); err == nil {
			err = e
		}
	}()
	opts := sweepOpts{
		jobs:     *jobs,
		stats:    *stats,
		check:    *checkInv,
		progress: runner.NewSyncWriter(progress),
	}
	if *statsJSN != "" {
		// Append, as documented: repeated invocations accumulate one
		// NDJSON stream rather than clobbering the previous runs.
		f, err := os.OpenFile(*statsJSN, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		opts.jsonW = f
	}
	if *degrade {
		axes, err := parseDegradeAxes(*degLoss, *degBurst, *degOutage, *degMAC)
		if err != nil {
			return err
		}
		return degradeSweep(out, *duration, axes, opts)
	}
	if !*perfOnly {
		if err := safetyMatrix(out, *duration, opts); err != nil {
			return err
		}
	}
	if !*safetyOnly {
		if err := perfSweep(out, *duration, opts); err != nil {
			return err
		}
	}
	return nil
}

// point is one sweep configuration queued for the run engine.
type point struct {
	sweep string
	cfg   vanetsim.TrialConfig
}

// emit checks a finished run against -check, then writes its progress
// line and NDJSON block. Every sweep calls it from a pool's ordered
// reducer, so both streams are byte-identical at every -j.
func emit(sweep string, r *vanetsim.TrialResult, opts sweepOpts) error {
	cfg := r.Config
	if n := len(r.Violations); opts.check && n > 0 {
		return fmt.Errorf("%s mac=%v size=%d: %d invariant violation(s), first: %v",
			sweep, cfg.MAC, cfg.PacketSize, n, r.Violations[0].Error())
	}
	line := fmt.Sprintf("eblsweep: %s mac=%v size=%d done (%.0f s sim)",
		sweep, cfg.MAC, cfg.PacketSize, float64(cfg.Duration))
	t := r.Telemetry
	if t != nil && opts.stats {
		events, _ := t.Counter("sched/events_executed")
		drops, _ := t.Counter("ifq/dropped_total")
		rtx, _ := t.Counter("tcp/retransmits")
		line += fmt.Sprintf(" — %d events, %d ifq drops, %d rtx, %.2fs wall",
			events, drops, rtx, r.WallSeconds)
	}
	if opts.progress != nil {
		if _, err := fmt.Fprintln(opts.progress, line); err != nil {
			return err
		}
	}
	if t == nil || opts.jsonW == nil {
		return nil
	}
	// A run-header line keys the metric lines that follow to this sweep
	// point; the block goes out in one write.
	var nd bytes.Buffer
	fmt.Fprintf(&nd, "{\"kind\":\"run\",\"sweep\":%q,\"mac\":%q,\"packet\":%d}\n",
		sweep, cfg.MAC.String(), cfg.PacketSize)
	if err := t.NDJSON(&nd); err != nil {
		return err
	}
	_, err := opts.jsonW.Write(nd.Bytes())
	return err
}

// sweepAll fans points across the worker pool and reduces in submission
// order: each run is emitted, then collect sees the result — exactly the
// byte stream a sequential loop produced before the pool existed.
func sweepAll(points []point, opts sweepOpts, collect func(i int, r *vanetsim.TrialResult) error) error {
	return runner.Each(runner.Pool{Workers: opts.jobs}, len(points),
		func(i int) (*vanetsim.TrialResult, error) {
			cfg := points[i].cfg
			cfg.Telemetry = opts.telemetry()
			cfg.Check = opts.check
			return vanetsim.RunTrial(cfg), nil
		},
		func(i int, r *vanetsim.TrialResult) error {
			if err := emit(points[i].sweep, r, opts); err != nil {
				return err
			}
			return collect(i, r)
		})
}

// safetyMatrix measures each MAC's indication delay once, then sweeps
// speed × gap through the braking model.
func safetyMatrix(out io.Writer, duration float64, opts sweepOpts) error {
	fmt.Fprintln(out, "Safety matrix: can the trailing vehicle stop in time?")
	fmt.Fprintln(out, "(7 m/s² braking, 0.7 s reaction, 5 m margin; measured indication delays)")

	macs := []vanetsim.MACType{vanetsim.MACTDMA, vanetsim.MAC80211}
	points := make([]point, 0, len(macs))
	for _, mac := range macs {
		cfg := vanetsim.Trial1()
		cfg.MAC = mac
		cfg.Duration = vanetsim.Seconds(duration)
		points = append(points, point{sweep: "safety", cfg: cfg})
	}
	delays := map[vanetsim.MACType]float64{}
	err := sweepAll(points, opts, func(i int, r *vanetsim.TrialResult) error {
		mac := macs[i]
		first, ok := r.Platoon1.TrailingDelays().First()
		if !ok {
			// No packet ever reached the trailing vehicle: there is no
			// indication delay, and a matrix built on 0.0 s would claim
			// every speed/gap combination safe. Refuse instead.
			return fmt.Errorf("%v: trailing vehicle received no packet in %.0f s of simulation; cannot measure the indication delay (communication starts at t ≈ 20 s — use a longer -duration)", mac, duration)
		}
		delays[mac] = float64(first)
		fmt.Fprintf(out, "  %v indication delay: %.4f s\n", mac, float64(first))
		return nil
	})
	if err != nil {
		return err
	}

	model := vanetsim.DefaultBrakingModel()
	gaps := []float64{15, 20, 25, 30, 40, 50}
	speeds := []float64{10, 15, 20, 22.4, 25, 30}
	for _, mac := range macs {
		fmt.Fprintf(out, "\n%v — rows: speed (m/s), cols: gap (m); S = safe, X = crash\n      ", mac)
		for _, g := range gaps {
			fmt.Fprintf(out, "%5.0f", g)
		}
		fmt.Fprintln(out)
		for _, v := range speeds {
			fmt.Fprintf(out, "%6.1f", v)
			need := model.MinSafeGap(v, vanetsim.Seconds(delays[mac]))
			for _, g := range gaps {
				mark := "    S"
				if need > g {
					mark = "    X"
				}
				fmt.Fprint(out, mark)
			}
			fmt.Fprintln(out)
		}
	}
	fmt.Fprintln(out)
	return nil
}

// degradeAxes are the parsed fault-injection sweep axes.
type degradeAxes struct {
	losses []float64
	bursts []float64
	outage vanetsim.FaultOutage // zero value = none
	mac    vanetsim.MACType
}

func parseDegradeAxes(loss, burst, outage, mac string) (degradeAxes, error) {
	var a degradeAxes
	var err error
	if a.losses, err = parseFloats(loss); err != nil {
		return a, fmt.Errorf("-degrade-loss: %w", err)
	}
	if a.bursts, err = parseFloats(burst); err != nil {
		return a, fmt.Errorf("-degrade-burst: %w", err)
	}
	if len(a.losses) == 0 || len(a.bursts) == 0 {
		return a, fmt.Errorf("-degrade-loss and -degrade-burst need at least one value")
	}
	if outage != "" {
		if a.outage, err = vanetsim.ParseFaultOutage(outage); err != nil {
			return a, err
		}
	}
	if a.mac, err = vanetsim.ParseMAC(mac); err != nil {
		return a, fmt.Errorf("-degrade-mac: %w", err)
	}
	return a, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// degradeSweep drives the fault layer across loss × burst-length (with an
// optional fixed outage) and reports how delay, throughput, and the
// braking-safety margin degrade. Each burst length is one RunDegradation
// over the loss grid.
func degradeSweep(out io.Writer, duration float64, axes degradeAxes, opts sweepOpts) error {
	cfg := vanetsim.DefaultDegradation(axes.mac)
	cfg.Base.Duration = vanetsim.Seconds(duration)
	cfg.Base.Check = opts.check
	cfg.LossProbs = axes.losses
	cfg.Outage = axes.outage
	cfg.Jobs = opts.jobs
	// Each burst length is its own RunDegradation, so every one is judged
	// before the first prints rows.
	for _, burst := range axes.bursts {
		cfg.BurstLen = burst
		if err := cfg.Validate(); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "Degradation sweep: %v MAC, loss x burst length", axes.mac)
	if axes.outage != (vanetsim.FaultOutage{}) {
		fmt.Fprintf(out, ", node %v down [%g s, %g s)", axes.outage.Node,
			float64(axes.outage.Start), float64(axes.outage.Start+axes.outage.Duration))
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "%6s %8s %10s %10s %10s %8s %9s %10s %5s\n",
		"burst", "loss", "avg_dly_s", "first_s", "mbps", "rtx", "injected", "margin_m", "safe")

	for _, burst := range axes.bursts {
		cfg.BurstLen = burst
		cfg.OnPoint = func(_ int, p vanetsim.DegradationPoint, r *vanetsim.TrialResult) error {
			if err := emit("degrade", r, opts); err != nil {
				return err
			}
			_, err := fmt.Fprintf(out, "%6.0f %8.3f %10.4f %10.4f %10.4f %8d %9d %10.2f %5v\n",
				burst, p.LossProb, p.MeanDelayS, p.FirstDelayS,
				p.ThroughputMbps, p.Retransmits, p.Injected, p.SafetyMarginM, p.Safe)
			return err
		}
		if _, err := vanetsim.RunDegradation(cfg); err != nil {
			return err
		}
	}
	return nil
}

// perfSweep runs the MAC × packet-size grid and prints a CSV-ish table.
func perfSweep(out io.Writer, duration float64, opts sweepOpts) error {
	fmt.Fprintln(out, "Performance sweep: MAC x packet size")
	fmt.Fprintf(out, "%-8s %6s %12s %12s %12s\n", "mac", "bytes", "avg_dly_s", "steady_s", "avg_mbps")
	var points []point
	for _, mac := range []vanetsim.MACType{vanetsim.MACTDMA, vanetsim.MAC80211} {
		for _, size := range []int{250, 500, 1000, 1500} {
			cfg := vanetsim.Trial1()
			cfg.MAC = mac
			cfg.PacketSize = size
			cfg.Duration = vanetsim.Seconds(duration)
			points = append(points, point{sweep: "perf", cfg: cfg})
		}
	}
	return sweepAll(points, opts, func(i int, r *vanetsim.TrialResult) error {
		cfg := points[i].cfg
		d := r.Platoon1.MiddleDelays()
		_, steady := d.SteadyState()
		tput := r.Platoon1.Throughput().Summary(cfg.Duration)
		fmt.Fprintf(out, "%-8v %6d %12.4f %12.4f %12.4f\n",
			cfg.MAC, cfg.PacketSize, d.Summary().Mean, steady, tput.Mean)
		return nil
	})
}
