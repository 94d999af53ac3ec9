package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"time"

	"vanetsim"
)

// evalSize sizes the paper-eval workload.
type evalSize struct {
	Evals int     // timed evaluations, at most (see run.more)
	SimS  float64 // simulated seconds per trial (the paper's runs are 200 s)
}

// warmSimS is the simulated length of the small evaluation and trial runs
// a set-up repetition performs so that lazily initialised state is built
// before timing. Communication starts at t ≈ 20 s, so 30 s exercises it.
const warmSimS = 30

// trialConfigs returns the paper's three trials at the given length.
func trialConfigs(seed uint64, simS float64, check bool) []vanetsim.TrialConfig {
	cfgs := []vanetsim.TrialConfig{vanetsim.Trial1(), vanetsim.Trial2(), vanetsim.Trial3()}
	for i := range cfgs {
		cfgs[i].Duration = vanetsim.Seconds(simS)
		cfgs[i].Seed = seed
		cfgs[i].Check = check
	}
	return cfgs
}

// paperEval times whole evaluations: the three trials, then the report
// eblreport renders from them. Every evaluation of one seed must render
// the same bytes, and a checked evaluation must find no invariant
// violation and render them too.
func paperEval(r *run, seed uint64, sz evalSize) error {
	var cfgs []vanetsim.TrialConfig
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		cfgs = trialConfigs(seed, sz.SimS, false)
		if _, _, err := evaluate(trialConfigs(seed, warmSimS, false), nil); err != nil {
			return err
		}
		r.setupDone(t0)
	}
	var want []byte
	for _, traced := range r.phases() {
		err := r.phase(traced, func() error {
			for i := 0; i < sz.Evals && r.more(i); i++ {
				t0, err := r.begin()
				if err != nil {
					return err
				}
				rep, rs, err := evaluate(cfgs, r.tr)
				d := time.Since(t0)
				if err == nil {
					err = sameOutput(&want, rep, "evaluation report")
				}
				for _, x := range rs {
					r.tr.countTrial(x)
				}
				r.op(d, opFresh, err)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	r.output(want)
	rep, _, err := evaluate(trialConfigs(seed, sz.SimS, true), nil)
	if err == nil {
		err = sameOutput(&want, rep, "checked evaluation report")
	}
	r.check(err)
	return nil
}

// sameOutput records got as the reference when *want is unset, and
// otherwise reports whether got differs from it.
func sameOutput(want *[]byte, got []byte, what string) error {
	if *want == nil {
		*want = got
		return nil
	}
	if !bytes.Equal(*want, got) {
		return fmt.Errorf("%s differs: sha256 %x, first run %x", what, sha256.Sum256(got), sha256.Sum256(*want))
	}
	return nil
}

// evaluate runs the three trials and renders eblreport's evaluation
// report without its replication-study section. Spans split the time
// into simulating, analysing and rendering.
//
// The report body is a copy of reportWith in cmd/eblreport/main.go, which
// is a main package and cannot be imported; keep the two in step. Unlike
// eblreport, which fans the trials out with RunTrials, the trials run one
// after another, so an evaluation times one core's work.
func evaluate(cfgs []vanetsim.TrialConfig, tr *tracer) ([]byte, []*vanetsim.TrialResult, error) {
	t0 := time.Now()
	rs := make([]*vanetsim.TrialResult, len(cfgs))
	for i, c := range cfgs {
		rs[i] = vanetsim.RunTrial(c)
	}
	tr.since("sim.span_s", t0)
	for _, r := range rs {
		if n := len(r.Violations); n > 0 {
			return nil, rs, fmt.Errorf("%v: %d invariant violation(s), first: %v", r.Config.Name, n, r.Violations[0].Error())
		}
	}
	r1, r2, r3 := rs[0], rs[1], rs[2]

	t0 = time.Now()
	delays := make([][]vanetsim.DelayRow, len(rs))
	tputs := make([][]vanetsim.ThroughputRow, len(rs))
	for i, r := range rs {
		delays[i] = vanetsim.DelayTable(r)
		tputs[i] = vanetsim.ThroughputTable(r)
	}
	d1 := r1.Platoon1.MiddleDelays().Summary().Mean
	d2 := r2.Platoon1.MiddleDelays().Summary().Mean
	d3 := r3.Platoon1.MiddleDelays().Summary().Mean
	t1 := r1.Platoon1.Throughput().Summary(r1.Config.Duration).Mean
	t2 := r2.Platoon1.Throughput().Summary(r2.Config.Duration).Mean
	t3 := r3.Platoon1.Throughput().Summary(r3.Config.Duration).Mean
	tr.since("metrics.analyze_s", t0)

	t0 = time.Now()
	var b strings.Builder
	b.WriteString("Extended Brake Lights reproduction — full evaluation report\n")
	b.WriteString("============================================================\n")
	for i, r := range rs {
		fmt.Fprintf(&b, "\n--- %v: %v MAC, %d-byte packets ---\n", r.Config.Name, r.Config.MAC, r.Config.PacketSize)
		b.WriteString("\nOne-way delay:\n")
		b.WriteString(vanetsim.FormatDelayTable(delays[i]))
		b.WriteString("\nThroughput:\n")
		b.WriteString(vanetsim.FormatThroughputTable(tputs[i]))
	}
	b.WriteString("\n--- §III.E analysis: packet size (trial 1 vs trial 2) ---\n")
	fmt.Fprintf(&b, "delay   trial2/trial1 = %.3f  (paper: essentially unchanged)\n", d2/d1)
	fmt.Fprintf(&b, "tput    trial2/trial1 = %.3f  (paper: roughly halved)\n", t2/t1)
	b.WriteString("\n--- §III.E analysis: MAC type (trial 1 vs trial 3) ---\n")
	fmt.Fprintf(&b, "delay   trial1/trial3 = %.1fx  (paper: significantly less under 802.11)\n", d1/d3)
	fmt.Fprintf(&b, "tput    trial3/trial1 = %.1fx  (paper: significantly greater under 802.11)\n", t3/t1)
	b.WriteString("\n--- §III.E stopping-distance analysis ---\n")
	b.WriteString(vanetsim.FormatStoppingTable(vanetsim.StoppingTable(rs...)))
	b.WriteString("\n--- Feasibility envelope (extension of §III.E) ---\n")
	b.WriteString("Minimum safe following gap vs speed, with realistic braking\n")
	b.WriteString("(7 m/s² both vehicles, 0.7 s reaction, 5 m margin), using each\n")
	b.WriteString("MAC's measured initial-packet indication delay (trailing vehicle):\n")
	fT, _ := r1.Platoon1.TrailingDelays().First()
	fD, _ := r3.Platoon1.TrailingDelays().First()
	speeds := []float64{10, 15, 20, vanetsim.MPHToMS(50), 25, 30, 35}
	b.WriteString(vanetsim.FormatEnvelopeTable(vanetsim.FeasibilityEnvelope(vanetsim.DefaultBrakingModel(), fT, fD, speeds)))
	b.WriteString("\n--- Figure shapes (ASCII) ---\n")
	for _, f := range []vanetsim.Figure{
		vanetsim.Fig5(r1), vanetsim.Fig7(r1),
		vanetsim.Fig8(r2), vanetsim.Fig10(r2),
		vanetsim.Fig11(r3), vanetsim.Fig15(r3),
	} {
		b.WriteString("\n")
		b.WriteString(f.ASCII(70, 12))
	}
	tr.since("render.format_s", t0)
	return []byte(b.String()), rs, nil
}

// denseSize sizes the dense-1000 workload.
type denseSize struct {
	Runs     int // timed runs, at most (see run.more)
	Vehicles int
}

// Every lead brakes at 5 s, so the last half second carries the safety
// streams on top of the beacon load.
const denseSimS = 5.5

// warmVehicles sizes the small dense run a set-up repetition performs.
const warmVehicles = 120

func denseConfig(seed uint64, vehicles int, check bool) vanetsim.DenseHighwayConfig {
	cfg := vanetsim.DefaultDenseHighway(vanetsim.MAC80211, vehicles)
	cfg.Duration = vanetsim.Seconds(denseSimS)
	cfg.Seed = seed
	cfg.Check = check
	return cfg
}

// denseHighway times runs of the 802.11 dense highway. Every run of one
// seed must produce the same outcome, and a checked run must find no
// invariant violation and produce it too.
func denseHighway(r *run, seed uint64, sz denseSize) error {
	var cfg vanetsim.DenseHighwayConfig
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		cfg = denseConfig(seed, sz.Vehicles, false)
		if _, err := vanetsim.RunDenseHighway(denseConfig(seed, warmVehicles, false)); err != nil {
			return err
		}
		r.setupDone(t0)
	}
	var want []byte
	for _, traced := range r.phases() {
		err := r.phase(traced, func() error {
			for i := 0; i < sz.Runs && r.more(i); i++ {
				t0, err := r.begin()
				if err != nil {
					return err
				}
				res, err := vanetsim.RunDenseHighway(cfg)
				d := time.Since(t0)
				if err == nil {
					r.tr.since("sim.span_s", t0)
					r.tr.countDense(res)
					err = sameOutput(&want, denseOutcome(res), "dense outcome")
				}
				r.op(d, opFresh, err)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	r.output(want)
	cfg.Check = true
	res, err := vanetsim.RunDenseHighway(cfg)
	if err == nil && len(res.Violations) > 0 {
		err = fmt.Errorf("checked dense run: %d invariant violation(s), first: %v", len(res.Violations), res.Violations[0].Error())
	}
	if err == nil {
		err = sameOutput(&want, denseOutcome(res), "checked dense outcome")
	}
	r.check(err)
	return nil
}

// denseOutcome is the run's outcome tuple: deliveries per traffic class,
// rear-end and frame collisions, and the channel's arrival counts.
func denseOutcome(res *vanetsim.DenseHighwayResult) []byte {
	return []byte(fmt.Sprintf("safety %d/%d beacon %d/%d collisions %d rx_collided %d channel %d/%d/%d\n",
		res.SafetySent, res.SafetyReceived, res.BeaconSent, res.BeaconReceived,
		res.Collisions, res.RxCollided, res.Channel.Offered, res.Channel.Delivered, res.Channel.FilteredFreq))
}

// countDense adds a dense run's work counts. The run's TCP senders are
// not reachable from its result, so only their first transmissions
// (SafetySent) are counted.
func (t *tracer) countDense(res *vanetsim.DenseHighwayResult) {
	if t == nil {
		return
	}
	t.countWorld(res.World)
	t.add("tcp.segments_sent", float64(res.SafetySent))
	t.add("app.sent", float64(res.SafetySent+res.BeaconSent))
	t.add("app.delivered", float64(res.SafetyReceived+res.BeaconReceived))
}

// studySize sizes the tolerance-trial3 workload.
type studySize struct {
	Studies int // timed studies, at most (see run.more)
	MaxReps int // replication budget per study
}

// The study eblreport -tolerance runs first: trial 3 at 60 s, all four
// metrics, on two workers. At ±5% most seeds exhaust the 64-replication
// budget because trial 3's mean delay is heavy-tailed, but one seed of the
// twenty first tried met it early and finished in a fifth of the time, so
// the work would depend on the seed. At ±1% no seed converges: every study
// takes the common ±5% path to the end of its budget.
//
// The budget is 16 replications, four batches, not eblreport's 64: a
// 64-replication study takes about 9 s, so a run held two of them and its
// timing was the mean of two, which spread by a fifth from run to run. At
// 16 a 25-second run holds nine studies.
const (
	studyTolerance = 0.01
	studySimS      = 60
	studyWorkers   = 2
	studyMaxReps   = 16
)

// toleranceStudy times adaptive-precision studies to their verdict. Every
// study of one seed must return the same report.
func toleranceStudy(r *run, seed uint64, sz studySize) error {
	var cfg vanetsim.TrialConfig
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		cfg = vanetsim.Trial3()
		cfg.Duration = vanetsim.Seconds(studySimS)
		cfg.Seed = seed
		warm := cfg
		warm.Duration = vanetsim.Seconds(warmSimS)
		vanetsim.RunTrial(warm)
		r.setupDone(t0)
	}
	var want []byte
	for _, traced := range r.phases() {
		// batches holds the wall time of every stopping-rule batch: from the
		// study's start or the previous batch's Progress call to the next
		// one, and from the last to the verdict.
		var batches []float64
		err := r.phase(traced, func() error {
			for i := 0; i < sz.Studies && r.more(i); i++ {
				opts := vanetsim.ToleranceOptions{MaxReps: sz.MaxReps, Pool: vanetsim.Pool{Workers: studyWorkers}}
				t0, err := r.begin()
				if err != nil {
					return err
				}
				last := t0
				if r.tr != nil {
					opts.Lookup = tracedReplication(cfg, r.tr)
					opts.Progress = func(string) {
						now := time.Now()
						batches = append(batches, now.Sub(last).Seconds())
						last = now
					}
				}
				st, err := vanetsim.RunReplicationsTolerance(cfg, studyTolerance, opts)
				d := time.Since(t0)
				batches = append(batches, time.Since(last).Seconds())
				if err == nil {
					err = sameOutput(&want, []byte(st.String()), "study report")
					r.tr.add("seqstop.reps_used", float64(len(st.Runs)))
					r.tr.add("seqstop.reps_executed", float64(st.Executed))
				}
				r.op(d, opFresh, err)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if traced {
			r.layers["seqstop.batch_s"] = median(batches)
		}
	}
	r.output(want)
	return nil
}

// tracedReplication returns a study Lookup hook that simulates the
// replication itself, so the traced phase can span and count each run.
// It measures a run exactly as the library does; the study report must
// come out identical to the untraced one, which the caller checks.
func tracedReplication(cfg vanetsim.TrialConfig, tr *tracer) func(seed uint64) (vanetsim.Replication, bool) {
	return func(seed uint64) (vanetsim.Replication, bool) {
		c := cfg
		c.Seed = seed
		t0 := time.Now()
		res := vanetsim.RunTrial(c)
		tr.since("sim.span_s", t0)
		tr.countTrial(res)

		t0 = time.Now()
		d := res.Platoon1.MiddleDelays()
		_, steady := d.SteadyState()
		first := math.NaN()
		if f, ok := res.Platoon1.TrailingDelays().First(); ok {
			first = float64(f)
		}
		rep := vanetsim.Replication{
			Seed:        seed,
			AvgDelayS:   d.Summary().Mean,
			SteadyS:     steady,
			FirstS:      first,
			AvgTputMbps: res.Platoon1.Throughput().Summary(res.Config.Duration).Mean,
		}
		tr.since("metrics.analyze_s", t0)
		return rep, true
	}
}
