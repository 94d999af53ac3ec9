// Command benchguard is the benchmark-regression gate: it parses `go test
// -bench` output (ns/op, B/op, allocs/op), compares every tracked
// benchmark against the committed baseline (BENCH.json "after" values),
// and exits non-zero if allocations regress at all or ns/op regresses
// beyond the tolerance. `make bench-guard` runs every BENCH.json row's
// benchmark into one transcript and judges it with one call.
//
//	make bench-guard
//	benchguard -input bench.txt
//	go test -bench . -benchmem ./internal/sim | benchguard -allow-missing
//	benchguard -input bench.txt -max-ns-regression 0.5
//
// Rules, per baseline benchmark:
//
//   - allocs/op must not exceed the baseline. The hot-path benchmarks are
//     pinned at 0 allocs/op, so any allocation on those paths fails the
//     gate outright. A benchmark whose baseline sets allocs_per_op must
//     report allocs/op (run with -benchmem); an input without that column
//     fails rather than passing the alloc gate unjudged.
//   - ns/op may not regress more than -max-ns-regression (default 20%).
//     With -count > 1 the best (minimum) sample is judged, so scheduler
//     noise cannot fail a healthy build; allocs use the worst (maximum)
//     sample, because a single allocating run is a real regression.
//   - every baseline benchmark must appear in the input (a silently
//     skipped benchmark is a silently disabled gate); relax with
//     -allow-missing.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"vanetsim/internal/cliflag"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}

// baselineFile mirrors BENCH.json.
type baselineFile struct {
	Benchmarks map[string]baselineRow `json:"benchmarks"`
}

type baselineRow struct {
	Package string      `json:"package"`
	Tag     string      `json:"tag"`
	After   measurement `json:"after"`
}

type measurement struct {
	NsPerOp    float64 `json:"ns_per_op"`
	BytesPerOp float64 `json:"bytes_per_op"`
	// AllocsPerOp is nil when the baseline does not pin allocations.
	AllocsPerOp *float64 `json:"allocs_per_op"`
}

// sample is one parsed benchmark result line.
type sample struct {
	ns     float64
	allocs float64
	hasNs  bool
	hasAll bool
}

func run(args []string, stdin io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	var (
		baselinePath = fs.String("baseline", "BENCH.json", "baseline JSON with per-benchmark after.{ns_per_op,allocs_per_op}")
		inputPath    = fs.String("input", "", "bench output to judge (default: stdin)")
		maxNsReg     = fs.Float64("max-ns-regression", 0.20, "maximum tolerated fractional ns/op regression")
		allowMissing = fs.Bool("allow-missing", false, "do not fail when a baseline benchmark is absent from the input")
	)
	if err := cliflag.Parse(fs, args); err != nil {
		return err
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		return err
	}
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("%s: %w", *baselinePath, err)
	}
	if len(base.Benchmarks) == 0 {
		return fmt.Errorf("%s: no benchmarks", *baselinePath)
	}

	in := stdin
	if *inputPath != "" {
		f, err := os.Open(*inputPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	samples, err := parseBench(in)
	if err != nil {
		return err
	}

	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	var failures []string
	fmt.Fprintf(out, "%-34s %12s %12s %8s %10s %10s %6s\n",
		"benchmark", "base ns/op", "got ns/op", "Δns", "base allocs", "got allocs", "ok")
	for _, name := range names {
		want := base.Benchmarks[name].After
		baseAllocs := "-"
		if want.AllocsPerOp != nil {
			baseAllocs = fmt.Sprintf("%.0f", *want.AllocsPerOp)
		}
		got, ok := samples[name]
		if !ok {
			if *allowMissing {
				fmt.Fprintf(out, "%-34s %12.1f %12s %8s %10s %10s %6s\n",
					name, want.NsPerOp, "-", "-", baseAllocs, "-", "skip")
				continue
			}
			failures = append(failures, fmt.Sprintf("%s: missing from bench output", name))
			continue
		}
		nsReg := got.ns/want.NsPerOp - 1
		verdict := "yes"
		gotAllocs := "-"
		if got.hasAll {
			gotAllocs = fmt.Sprintf("%.0f", got.allocs)
		}
		switch {
		case want.AllocsPerOp == nil:
		case !got.hasAll:
			verdict = "NO"
			failures = append(failures, fmt.Sprintf("%s: allocs/op missing (run with -benchmem)", name))
		case got.allocs > *want.AllocsPerOp:
			verdict = "NO"
			failures = append(failures, fmt.Sprintf("%s: allocs/op %g exceeds baseline %g",
				name, got.allocs, *want.AllocsPerOp))
		}
		if got.hasNs && want.NsPerOp > 0 && nsReg > *maxNsReg {
			verdict = "NO"
			failures = append(failures, fmt.Sprintf("%s: ns/op %.1f regresses %.1f%% over baseline %.1f (max %.0f%%)",
				name, got.ns, nsReg*100, want.NsPerOp, *maxNsReg*100))
		}
		fmt.Fprintf(out, "%-34s %12.1f %12.1f %+7.1f%% %10s %10s %6s\n",
			name, want.NsPerOp, got.ns, nsReg*100, baseAllocs, gotAllocs, verdict)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d benchmark regression(s):\n  %s",
			len(failures), strings.Join(failures, "\n  "))
	}
	fmt.Fprintf(out, "benchguard: %d benchmark(s) within budget\n", len(names))
	return nil
}

// parseBench extracts per-benchmark samples from `go test -bench` output.
// Repeated samples (-count > 1) fold to min ns/op and max allocs/op.
func parseBench(r io.Reader) (map[string]sample, error) {
	out := make(map[string]sample)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		// Strip the -GOMAXPROCS suffix go appends to parallel-capable names.
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		s := sample{ns: math.Inf(1)}
		if prev, ok := out[name]; ok {
			s = prev
		}
		// After the iteration count come value-unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad bench line %q: %w", sc.Text(), err)
			}
			switch fields[i+1] {
			case "ns/op":
				s.ns = math.Min(s.ns, v)
				s.hasNs = true
			case "allocs/op":
				s.allocs = math.Max(s.allocs, v)
				s.hasAll = true
			}
		}
		if s.hasNs || s.hasAll {
			out[name] = s
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
