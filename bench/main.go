// Command bench is the repository's end-to-end benchmark. It runs one of
// four named workloads against the simulator and its service, times them
// from outside through their public entry points, checks every
// operation's output, and prints one JSON result line last.
//
//	go run . -workload paper-eval -seed 1 -seconds 25 -trace 0
//	go run . -workload all -seed 1 -out runs.ndjson
//	go run . -compare parent.ndjson change.ndjson
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// the run splits its operations between an untraced phase and a traced
// one under a CPU profile with spans and counters, and the result carries
// the per-layer metrics. README.md holds
// the workloads, the metric dictionary and how a performance change uses
// the benchmark.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// workload is one named benchmark workload. Its operation count is planned
// from -seconds through two nominal costs, the medians measured on the
// reference host while it was quiet (see README.md): the wall time of one
// timed operation, and that of the rest of a run (set-up repetitions, the
// untimed checked operation, the two host probes). So a whole run on the
// quiet reference host takes about -seconds. A simulating workload's timed
// phase also stops early once the next operation would end past its share
// of -seconds (run.more), so a slow host shortens a run instead of
// lengthening it; service-mix, whose request schedule is fixed in advance,
// plans from a cost measured while the host was slow.
type workload struct {
	name    string
	cost    float64 // seconds per timed operation
	untimed float64 // seconds per run outside the timed operations
	min     int     // operations a run performs at the least
	run     func(r *run, seed uint64, ops int) error
}

var workloads = []workload{
	{"paper-eval", 0.78, 3.0, 3, func(r *run, seed uint64, ops int) error {
		return paperEval(r, seed, evalSize{Evals: ops, SimS: 200})
	}},
	{"dense-1000", 2.85, 4.0, 2, func(r *run, seed uint64, ops int) error {
		return denseHighway(r, seed, denseSize{Runs: ops, Vehicles: 1000})
	}},
	{"tolerance-trial3", 2.4, 1.5, 2, func(r *run, seed uint64, ops int) error {
		return toleranceStudy(r, seed, studySize{Studies: ops, MaxReps: studyMaxReps})
	}},
	// An operation is one request, hit or miss; the cost is the inverse of
	// the two clients' combined request rate.
	{"service-mix", 1.0 / 10000, 1.0, 64, func(r *run, seed uint64, ops int) error {
		return serviceMix(r, seed, mixSize{Configs: 32, Requests: ops})
	}},
}

// ops is the number of timed operations per phase planned to fit in
// seconds when a run has the given number of timed phases: a traced run splits
// its time between the untraced and the traced phase.
func (w *workload) ops(seconds, phases int) int {
	n := int((float64(seconds) - w.untimed) / w.cost / float64(phases))
	if n < w.min {
		return w.min
	}
	return n
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: "+workloadNames()+", or all")
		seed    = fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds = fs.Int("seconds", 25, "nominal length of a run; plans the operation count and bounds the timed phase")
		trace   = fs.Int("trace", 0, "1 = also run the traced phase and report per-layer metrics")
		out     = fs.String("out", "", "append one JSON record per run to this file")
		workdir = fs.String("workdir", ".bench_build/work", "scratch directory for cache directories and profiles")
		compare = fs.Bool("compare", false, "compare two files written by -out: bench -compare A B")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two record files")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintln(stderr, "bench: usage: -workload <name|all> -seed <n> -seconds <n> -trace <0|1>")
		return 2
	}
	var err error
	if *name == "all" {
		err = runAll(stdout, stderr, args)
	} else {
		err = runOne(stdout, *name, *seed, *seconds, *trace == 1, *workdir, *out)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runOne runs one workload in this process and prints its result.
func runOne(stdout io.Writer, name string, seed uint64, seconds int, trace bool, workdir, out string) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (have %s)", name, workloadNames())
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	r := newRun(name, trace, workdir)
	defer r.cleanup()
	phases := len(r.phases())
	r.budget = time.Duration((float64(seconds) - w.untimed) / float64(phases) * float64(time.Second))
	r.minOps = w.min
	res, err := r.measure(func(r *run) error { return w.run(r, seed, w.ops(seconds, phases)) })
	if err != nil {
		return err
	}
	r.print(stdout)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if out != "" {
		rec, err := json.Marshal(record{Workload: name, Seed: seed, Seconds: seconds, Trace: trace, CalibS: r.calib, Result: res})
		if err != nil {
			return err
		}
		if err := appendLine(out, rec); err != nil {
			return err
		}
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// record is one run as -out stores it and -compare reads it.
type record struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Seconds  int        `json:"seconds"`
	Trace    bool       `json:"trace"`
	CalibS   [2]float64 `json:"calib_s"` // host probe at the start and end
	Result   result     `json:"result"`
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload, each in its own child process, and prints a
// combined result whose metric names are prefixed by the workload.
func runAll(stdout, stderr io.Writer, args []string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		childArgs := append(append([]string(nil), args...), "-workload", w.name)
		cmd := exec.Command(exe, childArgs...)
		var buf strings.Builder
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("workload %s: result line: %w", w.name, err)
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			total.Metrics[w.name+"."+k] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// benchmarkFile locates BENCHMARK.json from the repository root or from
// the bench directory.
func benchmarkFile() (string, error) {
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
	}
	return "", errors.New("BENCHMARK.json not found in . or ..")
}

// spec is the part of BENCHMARK.json the benchmark itself reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec() (*spec, error) {
	path, err := benchmarkFile()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
