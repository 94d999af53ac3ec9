// Command vanetsim runs one trial of the paper's Extended Brake Lights
// scenario and prints its statistics tables, a figure as CSV or an ASCII
// plot, or an ns-2-style trace for offline analysis with ebltrace.
//
// Examples:
//
//	vanetsim -trial 1                 # trial 1 tables
//	vanetsim -trial 3 -ascii Fig11    # trial 3 delay curve in the terminal
//	vanetsim -trial 2 -csv Fig10      # figure data as CSV on stdout
//	vanetsim -trial 1 -trace t1.tr    # write an agent-level trace file
//	vanetsim -trial 0 -mac 802.11 -packet 500  # a configuration the paper didn't run
//	vanetsim -trial 3 -stats          # tables plus the telemetry summary
//	vanetsim -trial 1 -stats-json m.ndjson  # machine-readable run report
//	vanetsim -trial 1 -spans s.ndjson # causal per-packet span events
//	vanetsim -trial 3 -spans-chrome s.json  # the same, for chrome://tracing
//	vanetsim -dense 240 -mac 802.11 -check -spans s.ndjson  # dense highway, same outputs
//
// Fault injection (deterministic, seedable; see README "Fault injection"):
//
//	vanetsim -trial 1 -loss 0.05              # 5% independent frame loss
//	vanetsim -trial 1 -ber 1e-6               # per-bit error rate
//	vanetsim -trial 3 -burst-loss 0.1 -burst-len 4  # bursty Gilbert–Elliott loss
//	vanetsim -trial 1 -shadow 6               # 6 dB log-normal shadowing
//	vanetsim -trial 1 -outage 1:22:5 -outage 4:10:3  # radios down (node:start:dur)
//
// The flags become a canon.Request, and canon.Canonicalize resolves and
// validates it exactly as it does vanetsimd's JSON requests: the command
// line and the service accept the same configurations, and an accepted
// pair with equal canon.Hash runs identically.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"vanetsim"
	"vanetsim/internal/cliflag"
	"vanetsim/internal/prof"
	"vanetsim/internal/service/canon"
	"vanetsim/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "vanetsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	cl, err := parse(args)
	if err != nil {
		return err
	}
	stopProf, err := prof.Start(cl.cpuProf, cl.memProf)
	if err != nil {
		return err
	}
	defer func() {
		if e := stopProf(); err == nil {
			err = e
		}
	}()

	// Only the canon:"-" knobs, which cannot change result bytes, are set
	// past canonicalisation.
	o := cl.o
	if cl.c.Kind == canon.KindDense {
		cfg := cl.c.Dense
		cfg.Spans = o.spanned()
		return runDense(cfg, o, out)
	}
	cfg := cl.c.Trial
	cfg.CollectTrace = o.trace != ""
	cfg.Spans = o.spanned()
	if cl.animate {
		cfg.AnimInterval = 2 // seconds per frame
	}

	r := vanetsim.RunTrial(cfg)
	return o.emit(&r.Observations, cfg.Name, out, func() error {
		if cl.csvFig != "" {
			f, err := figureByName(r, cl.csvFig)
			if err != nil {
				return err
			}
			fmt.Fprint(out, f.CSV())
			return nil
		}
		if cl.asciiFig != "" {
			f, err := figureByName(r, cl.asciiFig)
			if err != nil {
				return err
			}
			fmt.Fprint(out, f.ASCII(70, 16))
			return nil
		}
		if cl.animate && r.Anim != nil {
			vp := r.Anim.AutoViewport(30)
			if err := r.Anim.Play(out, vp, 72, 18, 2); err != nil {
				return err
			}
			fmt.Fprint(out, r.Anim.Legend())
			return nil
		}
		fmt.Fprintf(out, "%v — %s MAC, %d-byte packets, %.0f s simulated\n\n",
			cfg.Name, cfg.MAC, cfg.PacketSize, float64(cfg.Duration))
		fmt.Fprintln(out, "One-way delay (per receiving vehicle):")
		fmt.Fprint(out, vanetsim.FormatDelayTable(vanetsim.DelayTable(r)))
		fmt.Fprintln(out, "\nThroughput (per platoon, 95% batch-means CI):")
		fmt.Fprint(out, vanetsim.FormatThroughputTable(vanetsim.ThroughputTable(r)))
		fmt.Fprintln(out, "\nStopping-distance analysis (initial packet, platoon 1):")
		fmt.Fprint(out, vanetsim.FormatStoppingTable(vanetsim.StoppingTable(r)))
		return nil
	})
}

// cmdline is a parsed command line: the canonical run and what the
// command does around it.
type cmdline struct {
	c                *canon.Canonical
	o                outputs
	cpuProf, memProf string
	csvFig, asciiFig string
	animate          bool
}

// parse turns a command line into a canonical run. Every error comes
// before anything runs.
func parse(args []string) (*cmdline, error) {
	def := vanetsim.DefaultDenseHighway(vanetsim.MACTDMA, 0)
	fs := flag.NewFlagSet("vanetsim", flag.ContinueOnError)
	var (
		cl       cmdline
		trial    = fs.Int("trial", 1, "paper trial to run (1, 2 or 3); 0 to build from -mac/-packet")
		macName  = fs.String("mac", "tdma", "MAC type for -trial 0 and -dense: tdma or 802.11")
		pktSize  = fs.Int("packet", 1000, "packet size in bytes for -trial 0")
		duration = fs.Float64("duration", 0, "override simulated seconds (0 = paper default)")
		seed     = fs.Uint64("seed", 0, "override RNG seed (0 = default)")
		dense    = fs.Int("dense", 0, "run the dense multi-lane highway with this many vehicles (200–2000 typical) instead of a paper trial")
		lanes    = fs.Int("lanes", def.Lanes, "lane count for -dense")
		platoon  = fs.Int("platoon-len", def.PlatoonLen, "vehicles per platoon for -dense")
		beaconFr = fs.Float64("beacon-frac", def.BeaconFraction, "fraction of vehicles sourcing beacon traffic for -dense")
		beaconJt = fs.Float64("beacon-jitter", 0, "per-vehicle beacon-interval jitter fraction in [0,1) for -dense (0 = lockstep intervals)")
		safDepth = fs.Int("safety-depth", 0, "followers per platoon on the lead's safety stream for -dense (0 = all)")
		loss     = fs.Float64("loss", 0, "independent per-frame loss probability")
		ber      = fs.Float64("ber", 0, "independent per-bit error rate")
		burstP   = fs.Float64("burst-loss", 0, "stationary loss probability of the bursty (Gilbert–Elliott) model")
		burstLen = fs.Float64("burst-len", 4, "mean burst length in frames for -burst-loss (finite, at least 1)")
		shadow   = fs.Float64("shadow", 0, "log-normal shadowing standard deviation in dB")
		outages  outageList
	)
	fs.StringVar(&cl.cpuProf, "cpuprofile", "", "write a CPU profile to this path")
	fs.StringVar(&cl.memProf, "memprofile", "", "write an allocation profile to this path")
	fs.StringVar(&cl.csvFig, "csv", "", "print one figure as CSV (Fig5..Fig15)")
	fs.StringVar(&cl.asciiFig, "ascii", "", "print one figure as an ASCII plot (Fig5..Fig15)")
	fs.BoolVar(&cl.animate, "anim", false, "play an ASCII animation of vehicle motion (nam's role)")
	fs.Var(&outages, "outage", "radio outage as node:start:duration seconds (repeatable)")
	o := &cl.o
	fs.StringVar(&o.trace, "trace", "", "write an agent-level trace file to this path")
	fs.BoolVar(&o.stats, "stats", false, "print the cross-layer telemetry summary after the run")
	fs.BoolVar(&o.check, "check", false, "arm the runtime invariant checker; non-zero exit on any violation")
	fs.StringVar(&o.spans, "spans", "", "write causal per-packet span events as NDJSON to this path")
	fs.StringVar(&o.spansChrome, "spans-chrome", "", "write span events as Chrome trace-event JSON to this path")
	fs.StringVar(&o.statsJSON, "stats-json", "", "write run telemetry as NDJSON to this path")
	fs.StringVar(&o.statsProm, "stats-prom", "", "write run telemetry in Prometheus text format to this path")
	if err := cliflag.Parse(fs, args); err != nil {
		return nil, err
	}
	var req canon.Request
	if *dense != 0 {
		if set := cliflag.Set(fs, denseRejects...); len(set) > 0 {
			return nil, fmt.Errorf("-dense does not take %s", strings.Join(set, ", "))
		}
		req = canon.Request{Kind: canon.KindDense, Dense: &canon.DenseRequest{
			Vehicles:     *dense,
			MAC:          *macName,
			Lanes:        *lanes,
			PlatoonLen:   *platoon,
			BeaconJitter: *beaconJt,
			SafetyDepth:  *safDepth,
			DurationS:    *duration,
			Seed:         *seed,
			Telemetry:    o.telemetry(),
			Check:        o.check,
		}}
		// An explicit fraction, even 0, differs from the default.
		if len(cliflag.Set(fs, "beacon-frac")) > 0 {
			req.Dense.BeaconFraction = beaconFr
		}
	} else {
		if set := cliflag.Set(fs, denseOnly...); len(set) > 0 {
			return nil, fmt.Errorf("%s: only valid with -dense", strings.Join(set, ", "))
		}
		if *trial >= 1 && *trial <= 3 {
			if set := cliflag.Set(fs, customOnly...); len(set) > 0 {
				return nil, fmt.Errorf("-trial %d does not take %s: -packet and -mac configure -trial 0", *trial, strings.Join(set, ", "))
			}
		}
		req = canon.Request{Kind: canon.KindTrial, Trial: &canon.TrialRequest{
			Trial:     *trial,
			DurationS: *duration,
			Seed:      *seed,
			Faults: &canon.FaultRequest{
				Loss: *loss, BER: *ber, BurstLoss: *burstP, BurstLen: *burstLen, ShadowDB: *shadow, Outages: outages,
			},
			Telemetry: o.telemetry(),
			Check:     o.check,
		}}
		if *trial == 0 {
			req.Trial.MAC, req.Trial.Packet = *macName, *pktSize
		}
	}
	// In a canon request 0 means "the default". These flags never default
	// to 0, so a 0 was typed and is refused rather than replaced.
	for _, f := range []struct {
		name string
		zero bool
	}{{"packet", *pktSize == 0}, {"lanes", *lanes == 0}, {"platoon-len", *platoon == 0}, {"burst-len", *burstLen == 0}} {
		if f.zero {
			return nil, fmt.Errorf("-%s 0: want a positive value", f.name)
		}
	}
	var err error
	cl.c, err = canon.Canonicalize(req)
	if err != nil {
		return nil, err
	}
	return &cl, nil
}

// denseRejects names the flags that configure a paper trial only; -dense
// refuses them rather than silently ignoring them.
var denseRejects = []string{
	"trial", "packet", "trace", "anim", "csv", "ascii", "loss", "ber",
	"burst-loss", "burst-len", "shadow", "outage",
}

// denseOnly names the flags that configure -dense only; a trial refuses
// them.
var denseOnly = []string{"lanes", "platoon-len", "beacon-frac", "beacon-jitter", "safety-depth"}

// customOnly names the flags that build -trial 0's configuration; the
// fixed paper trials 1-3 refuse them.
var customOnly = []string{"packet", "mac"}

// runDense executes and summarises the dense multi-lane scaling scenario.
func runDense(cfg vanetsim.DenseHighwayConfig, o outputs, out io.Writer) error {
	r, err := vanetsim.RunDenseHighway(cfg)
	if err != nil {
		return err
	}
	return o.emit(&r.Observations, "dense highway", out, func() error {
		fmt.Fprintf(out, "dense highway — %v MAC, %d vehicles, %d lanes, %d platoons (culled), %.0f s simulated in %.2f s wall\n\n",
			cfg.MAC, cfg.Vehicles, cfg.Lanes, r.Platoons, float64(cfg.Duration), r.WallSeconds)
		fmt.Fprint(out, vanetsim.FormatDenseSummary(r))
		return nil
	})
}

// outputs are the observation flags. Both paths honour them, except that
// -dense rejects -trace.
type outputs struct {
	check                     bool
	stats                     bool
	statsJSON, statsProm      string
	trace, spans, spansChrome string
}

// telemetry reports whether any telemetry output was requested.
func (o outputs) telemetry() bool { return o.stats || o.statsJSON != "" || o.statsProm != "" }

// spanned reports whether any span output was requested.
func (o outputs) spanned() bool { return o.spans != "" || o.spansChrome != "" }

// emit is the one output path for a run's observations. A checked run
// with violations prints them (with their span trails, the first ten)
// to stderr and fails; a clean one says so. Then the trace and span
// files are written, body prints the run's own report, and the telemetry
// exports and text summary close it out.
func (o outputs) emit(obs *vanetsim.Observations, label string, out io.Writer, body func() error) error {
	if o.check {
		if n := len(obs.Violations); n > 0 {
			for i, v := range obs.Violations {
				fmt.Fprintln(os.Stderr, "vanetsim:", v.Error())
				for _, line := range v.Trail {
					fmt.Fprintln(os.Stderr, "vanetsim:   trail:", line)
				}
				if i == 9 && n > 10 {
					fmt.Fprintf(os.Stderr, "vanetsim: ... and %d more\n", n-10)
					break
				}
			}
			return fmt.Errorf("%d invariant violation(s)", n)
		}
		fmt.Fprintf(out, "invariant check: clean (%s)\n", label)
	}
	if o.trace != "" {
		if err := writeFile(o.trace, func(w io.Writer) error { return trace.WriteAll(w, obs.Trace) }); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d trace records to %s\n", len(obs.Trace), o.trace)
	}
	if o.spans != "" {
		if err := vanetsim.WriteSpans(o.spans, obs.Spans); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d span events to %s\n", len(obs.Spans), o.spans)
	}
	if o.spansChrome != "" {
		if err := vanetsim.WriteSpansChrome(o.spansChrome, obs.Spans); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d span events (chrome trace) to %s\n", len(obs.Spans), o.spansChrome)
	}
	if err := body(); err != nil {
		return err
	}
	if obs.Telemetry == nil {
		return nil
	}
	if o.statsJSON != "" {
		if err := writeFile(o.statsJSON, obs.Telemetry.NDJSON); err != nil {
			return err
		}
	}
	if o.statsProm != "" {
		if err := writeFile(o.statsProm, obs.Telemetry.Prometheus); err != nil {
			return err
		}
	}
	if o.stats {
		fmt.Fprintln(out, "\nTelemetry:")
		fmt.Fprint(out, obs.Telemetry.FormatText())
	}
	return nil
}

// outageList collects repeated -outage flags.
type outageList []canon.OutageRequest

func (l *outageList) String() string {
	var parts []string
	for _, o := range *l {
		parts = append(parts, fmt.Sprintf("%d:%g:%g", o.Node, o.StartS, o.DurationS))
	}
	return strings.Join(parts, ",")
}

func (l *outageList) Set(s string) error {
	o, err := vanetsim.ParseFaultOutage(s)
	if err != nil {
		return err
	}
	*l = append(*l, canon.OutageRequest{Node: o.Node, StartS: float64(o.Start), DurationS: float64(o.Duration)})
	return nil
}

// writeFile streams one export to path.
func writeFile(path string, export func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := export(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// figureByName resolves "Fig5".."Fig15" against the trial the figure
// belongs to (any trial's result can render any figure id; the caller is
// responsible for pairing them the way the paper does).
func figureByName(r *vanetsim.TrialResult, name string) (vanetsim.Figure, error) {
	figs := map[string]func(*vanetsim.TrialResult) vanetsim.Figure{
		"fig5": vanetsim.Fig5, "fig6": vanetsim.Fig6, "fig7": vanetsim.Fig7,
		"fig8": vanetsim.Fig8, "fig9": vanetsim.Fig9, "fig10": vanetsim.Fig10,
		"fig11": vanetsim.Fig11, "fig12": vanetsim.Fig12, "fig13": vanetsim.Fig13,
		"fig14": vanetsim.Fig14, "fig15": vanetsim.Fig15,
	}
	fn, ok := figs[strings.ToLower(name)]
	if !ok {
		return vanetsim.Figure{}, fmt.Errorf("unknown figure %q (want Fig5..Fig15)", name)
	}
	return fn(r), nil
}
