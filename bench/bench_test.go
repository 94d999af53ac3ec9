package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(xs, n=4) on the same inputs.
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{5, 1.5, 9.25, 2, 7.5, 3, 8}, 5, 2, 8},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if got := median(c.xs); got != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: median %v quartiles %v, %v; want %v, %v, %v", c.xs, got, q1, q3, c.med, c.q1, c.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n  int
		p  float64
		ok bool
	}{
		{1, 0.5, false}, {19, 0.5, false}, {20, 0.5, true}, {99, 0.5, true},
		{100, 0.9, true}, {999, 0.9, true}, {1000, 0.99, true},
		{60000, 0.99, true},
	}
	for _, c := range cases {
		if p, ok := tailPercentile(c.n); p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.ok)
		}
	}
}

func TestFoldTracesChargesInnermostModule(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "traces.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	split, err := foldTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"sim":      3, // plain scheduler frames
		"mac80211": 2, // allocation leaf charged to the closure that allocated
		"stats":    1, // standard-library leaf charged to its caller
		"runner":   1, // generic instantiation whose brackets hold other paths
		"render":   1, // the root package
		"canon":    1, // innermost vanetsim frame wins over net/http callers
		"http":     1, // no vanetsim frame, net/http present
		"gc_bg":    1, // runtime only
		"harness":  1, // the benchmark's own code
		"other":    1, // an unlisted vanetsim module, runtime leaf
	}
	if !reflect.DeepEqual(split.samples, want) {
		t.Errorf("samples per bucket = %v, want %v", split.samples, want)
	}
	if split.total != 13 || split.runtimeInLayer != 4 {
		t.Errorf("total %d runtime-in-layer %d, want 13 and 4", split.total, split.runtimeInLayer)
	}
	if got := split.seconds["sim"]; math.Abs(got-0.03) > 1e-9 {
		t.Errorf("sim seconds = %v, want 0.03", got)
	}
	for b := range split.samples {
		if !contains(cpuBuckets, b) {
			t.Errorf("bucket %q is not in cpuBuckets", b)
		}
	}
}

func TestFoldTracesRejectsMalformedValue(t *testing.T) {
	in := "-----------+---\n      tenms   main.main\n"
	if _, err := foldTraces(strings.NewReader(in)); err == nil {
		t.Fatal("want an error for an unparsable sample value")
	}
}

func TestMoreStopsBeforeTheBudgetRunsOut(t *testing.T) {
	r := &run{budget: 10 * time.Second, minOps: 2, phaseStart: time.Now().Add(-8 * time.Second)}
	cases := []struct {
		i    int
		want bool
	}{
		{0, true}, {1, true}, // below the minimum, whatever the time
		{2, false}, // 4 s per operation: the next would end at 12 s
		{5, true},  // 1.6 s per operation: the next ends at 9.6 s
	}
	for _, c := range cases {
		if got := r.more(c.i); got != c.want {
			t.Errorf("more(%d) after 8 s of a 10-s budget = %v, want %v", c.i, got, c.want)
		}
	}
	if !(&run{}).more(100) {
		t.Error("a run without a budget stopped early")
	}
}

func TestMixScheduleIntroducesEveryOwnedConfigOnce(t *testing.T) {
	sz := mixSize{Configs: 6, Requests: 41}
	total := 0
	for c := 0; c < mixClients; c++ {
		seq := mixSchedule(7, c, sz)
		total += len(seq)
		if !reflect.DeepEqual(seq, mixSchedule(7, c, sz)) {
			t.Fatal("schedule is not a function of its seed")
		}
		var firsts []int
		seen := map[int]bool{}
		for _, k := range seq {
			if k%mixClients != c {
				t.Fatalf("client %d requested config %d it does not own", c, k)
			}
			if !seen[k] {
				seen[k] = true
				firsts = append(firsts, k)
			}
		}
		if !sort.IntsAreSorted(firsts) || len(firsts) != sz.Configs/mixClients {
			t.Errorf("client %d introduced %v, want all owned configs in order", c, firsts)
		}
	}
	if total != sz.Requests {
		t.Errorf("schedules hold %d requests, want %d", total, sz.Requests)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	m := specMetric{Name: "op_mean_ms", Better: "lower", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		m    specMetric
		b    []float64
		want string
	}{
		{m, []float64{104, 105, 103, 104, 104}, verdictWithin},
		{m, []float64{120, 121, 119, 120, 120}, verdictRegressed},
		{m, []float64{80, 81, 79, 80, 80}, verdictImproved},
		{m, []float64{60, 100, 140, 100, 100}, verdictUnresolved},
		// Set-up time gets no exemption from the spread rule.
		{specMetric{Name: "setup_s", Better: "lower", Bound: 0.1}, []float64{60, 100, 140, 100, 100}, verdictUnresolved},
		{specMetric{Name: "rate", Better: "higher", Bound: 0.1}, []float64{80, 81, 79, 80, 80}, verdictRegressed},
	}
	for _, c := range cases {
		if got := judge(c.m, steady, c.b).verdict; got != c.want {
			t.Errorf("%s vs %v: %q, want %q", c.m.Name, c.b, got, c.want)
		}
	}
}

// toy sizes every workload small enough for the whole suite to finish in
// seconds.
var toy = map[string]func(r *run) error{
	"paper-eval":       func(r *run) error { return paperEval(r, 3, evalSize{Evals: 2, SimS: 30}) },
	"dense-1000":       func(r *run) error { return denseHighway(r, 3, denseSize{Runs: 2, Vehicles: 120}) },
	"tolerance-trial3": func(r *run) error { return toleranceStudy(r, 3, studySize{Studies: 1, MaxReps: 4}) },
	"service-mix":      func(r *run) error { return serviceMix(r, 3, mixSize{Configs: 4, Requests: 40}) },
}

func TestSmokeEveryWorkloadReportsEveryMetric(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var specNames []string
	for _, w := range sp.Workloads {
		specNames = append(specNames, w.Name)
	}
	if got := strings.Split(workloadNames(), ", "); !reflect.DeepEqual(got, specNames) {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", got, specNames)
	}
	if len(sp.PerLayer) != len(layerSpec) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, layerSpec %d", len(sp.PerLayer), len(layerSpec))
	}
	for i := range layerSpec {
		if i < len(sp.PerLayer) && (sp.PerLayer[i].Name != layerSpec[i].name || sp.PerLayer[i].Unit != layerSpec[i].unit) {
			t.Errorf("per-layer metric %d: BENCHMARK.json %v, layerSpec %v", i, sp.PerLayer[i], layerSpec[i])
		}
	}
	for _, name := range specNames {
		t.Run(name, func(t *testing.T) {
			r := newRun(name, true, t.TempDir())
			defer r.cleanup()
			res, err := r.measure(toy[name])
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct %v, %d of %d operations failed: %v", res.Correct, res.Failed, res.Attempted, r.failures)
			}
			e2e := map[string]metricValue{}
			for _, m := range r.endToEnd() {
				e2e[m.name] = m
			}
			for _, m := range sp.EndToEnd {
				got, ok := e2e[m.Name]
				if !ok || got.unit != m.Unit || !(got.value > 0) || math.IsInf(got.value, 0) {
					t.Errorf("end-to-end %s = %+v, want a positive finite value in %s", m.Name, got, m.Unit)
				}
			}
			if len(e2e) != len(sp.EndToEnd) {
				t.Errorf("%d end-to-end metrics, BENCHMARK.json lists %d", len(e2e), len(sp.EndToEnd))
			}
			for _, m := range sp.PerLayer {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("per-layer %s = %+v, want a finite value in %s", m.Name, got, m.Unit)
				}
			}
			if len(res.Metrics) != len(sp.PerLayer) {
				t.Errorf("%d per-layer metrics, BENCHMARK.json lists %d", len(res.Metrics), len(sp.PerLayer))
			}
			if res.Metrics["pprof.samples"].Value < 1 {
				t.Error("the traced phase recorded no profile samples")
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
				t.Errorf("result line keys %s, want exactly correct, attempted, failed, metrics", line)
			}
		})
	}
}

func TestCorruptCachedArtifactFailsTheHits(t *testing.T) {
	var once sync.Once
	var damaged string
	corrupt := func(dir, hash string) {
		once.Do(func() {
			damaged = hash
			if err := os.WriteFile(filepath.Join(dir, hash[:2], hash), []byte("corrupt\n"), 0o644); err != nil {
				t.Error(err)
			}
		})
	}
	r := newRun("service-mix", false, t.TempDir())
	defer r.cleanup()
	res, err := r.measure(func(r *run) error {
		return serviceMix(r, 5, mixSize{Configs: 4, Requests: 40, afterMiss: corrupt})
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("correct %v with %d failed operations after corrupting %s; want failures", res.Correct, res.Failed, damaged)
	}
	for _, f := range r.failures {
		if !strings.Contains(f, damaged) {
			t.Errorf("failure %q does not name the damaged artifact %s", f, damaged)
		}
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
