package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readRecords loads the untraced runs of a file written by -out.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !rec.Trace {
			out = append(out, rec)
		}
	}
	return out, sc.Err()
}

// runsOf returns the runs of one workload and how many failed their checks.
func runsOf(recs []record, workload string) (runs []record, incorrect int) {
	for _, rec := range recs {
		if rec.Workload == workload {
			runs = append(runs, rec)
			if !rec.Result.Correct {
				incorrect++
			}
		}
	}
	return runs, incorrect
}

// metricValues returns one metric's value from every run that has it.
func metricValues(runs []record, name string) []float64 {
	var vs []float64
	for _, rec := range runs {
		if m, ok := rec.Result.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// calibValues returns each run's mean host probe time.
func calibValues(runs []record) []float64 {
	vs := make([]float64, len(runs))
	for i, rec := range runs {
		vs[i] = (rec.CalibS[0] + rec.CalibS[1]) / 2
	}
	return vs
}

// compareFiles prints, for each workload and end-to-end metric, both
// sets' medians and quartiles, the change of median, and the verdict
// against the metric's bound in BENCHMARK.json. A metric whose spread
// (interquartile range over median) exceeds its bound in either set is
// unresolved. The host probe's medians follow, so host
// drift between the sets can be told from a change in the code. It
// returns an error if any metric regressed or any run failed its checks.
func compareFiles(w io.Writer, pathA, pathB string) error {
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s, B = %s; spread = (q3-q1)/median; Δ = B/A - 1\n", pathA, pathB)
	var regressed, unresolved, incorrect int
	for _, wl := range sp.Workloads {
		ra, badA := runsOf(a, wl.Name)
		rb, badB := runsOf(b, wl.Name)
		incorrect += badA + badB
		fmt.Fprintf(w, "\n%s: %d and %d runs, %d and %d failed their checks\n", wl.Name, len(ra), len(rb), badA, badB)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-14s %-5s %30s %30s %8s %6s  %s\n", "metric", "unit", "A median [q1, q3] n", "B median [q1, q3] n", "Δ", "bound", "verdict")
		for _, m := range sp.EndToEnd {
			va, vb := metricValues(ra, m.Name), metricValues(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "  %-14s %-5s missing in one of the sets\n", m.Name, m.Unit)
				continue
			}
			v := judge(m, va, vb)
			switch v.verdict {
			case verdictRegressed:
				regressed++
			case verdictUnresolved:
				unresolved++
			}
			fmt.Fprintf(w, "  %-14s %-5s %30s %30s %+7.1f%% %5.0f%%  %s\n",
				m.Name, m.Unit, summary(va), summary(vb), 100*v.delta, 100*m.Bound, v.verdict)
		}
		ca, cb := calibValues(ra), calibValues(rb)
		fmt.Fprintf(w, "  %-14s %-5s %30s %30s %+7.1f%%         host probe, not judged\n",
			"host.calib_s", "s", summary(ca), summary(cb), 100*(median(cb)/median(ca)-1))
	}
	fmt.Fprintf(w, "\n%d regressed, %d unresolved, %d runs failed their checks\n", regressed, unresolved, incorrect)
	if regressed > 0 || incorrect > 0 {
		return fmt.Errorf("%d metric(s) regressed, %d run(s) failed their checks", regressed, incorrect)
	}
	return nil
}

const (
	verdictWithin     = "within bound"
	verdictImproved   = "better by more than the bound"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved: spread exceeds the bound"
)

type judgement struct {
	delta            float64 // B's median over A's, minus one
	spreadA, spreadB float64
	verdict          string
}

// judge compares two sets of one metric against its bound.
func judge(m specMetric, a, b []float64) judgement {
	ma, mb := median(a), median(b)
	j := judgement{delta: mb/ma - 1, spreadA: spread(a), spreadB: spread(b)}
	worse := j.delta
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case j.spreadA > m.Bound || j.spreadB > m.Bound:
		j.verdict = verdictUnresolved
	case worse > m.Bound:
		j.verdict = verdictRegressed
	case -worse > m.Bound:
		j.verdict = verdictImproved
	default:
		j.verdict = verdictWithin
	}
	return j
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", median(xs), q1, q3, len(xs))
}
