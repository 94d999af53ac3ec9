package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const baselineJSON = `{
  "benchmarks": {
    "BenchmarkSchedulerHotPath": {
      "after": { "ns_per_op": 127.3, "bytes_per_op": 0, "allocs_per_op": 0 }
    },
    "BenchmarkTrial1Baseline": {
      "after": { "ns_per_op": 4945466, "bytes_per_op": 1767835, "allocs_per_op": 35767 }
    }
  }
}`

func writeBaseline(t *testing.T) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(p, []byte(baselineJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func guard(t *testing.T, bench string, extra ...string) (string, error) {
	t.Helper()
	var sb strings.Builder
	args := append([]string{"-baseline", writeBaseline(t)}, extra...)
	err := run(args, strings.NewReader(bench), &sb)
	return sb.String(), err
}

const healthy = `goos: linux
BenchmarkSchedulerHotPath-16   19365415   127.9 ns/op   0 B/op   0 allocs/op
BenchmarkTrial1Baseline-16     5   4900000 ns/op   1767835 B/op   35767 allocs/op
PASS
`

func TestHealthyRunPasses(t *testing.T) {
	out, err := guard(t, healthy)
	if err != nil {
		t.Fatalf("healthy run failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "2 benchmark(s) within budget") {
		t.Fatalf("missing summary:\n%s", out)
	}
}

func TestAllocRegressionFails(t *testing.T) {
	for _, tc := range []struct{ name, bench, want string }{
		{"one alloc on a zero-alloc path",
			strings.Replace(healthy, "0 allocs/op", "1 allocs/op", 1),
			"allocs/op 1 exceeds baseline 0"},
		// Without -benchmem there is no allocs/op column: the alloc gate
		// must fail rather than pass unjudged.
		{"no -benchmem columns",
			"BenchmarkSchedulerHotPath-16 100 127.9 ns/op\nBenchmarkTrial1Baseline-16 5 4900000 ns/op\n",
			"BenchmarkSchedulerHotPath: allocs/op missing (run with -benchmem)"},
	} {
		out, err := guard(t, tc.bench)
		if err == nil {
			t.Fatalf("%s: passed:\n%s", tc.name, out)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: wrong failure: %v", tc.name, err)
		}
	}
	// The missing column prints as "-", never as a measured 0.
	out, _ := guard(t, "BenchmarkSchedulerHotPath-16 100 127.9 ns/op\nBenchmarkTrial1Baseline-16 5 4900000 ns/op 0 B/op 35767 allocs/op\n")
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "BenchmarkSchedulerHotPath" {
			if got := f[len(f)-2]; got != "-" {
				t.Fatalf("got allocs column %q, want \"-\": %s", got, line)
			}
			return
		}
	}
	t.Fatalf("no table row for BenchmarkSchedulerHotPath:\n%s", out)
}

func TestNsRegressionFails(t *testing.T) {
	// 127.3 * 1.25 ≈ 159 ns/op: beyond the 20% default tolerance.
	bench := strings.Replace(healthy, "127.9 ns/op", "159.0 ns/op", 1)
	out, err := guard(t, bench)
	if err == nil {
		t.Fatalf("25%% ns/op regression passed:\n%s", out)
	}
	if !strings.Contains(err.Error(), "regresses") {
		t.Fatalf("wrong failure: %v", err)
	}
	// A widened tolerance accepts the same run.
	if _, err := guard(t, bench, "-max-ns-regression", "0.5"); err != nil {
		t.Fatalf("-max-ns-regression 0.5 still failed: %v", err)
	}
}

func TestFasterIsFine(t *testing.T) {
	bench := strings.Replace(healthy, "127.9 ns/op", "60.0 ns/op", 1)
	if out, err := guard(t, bench); err != nil {
		t.Fatalf("an improvement failed the gate: %v\n%s", err, out)
	}
}

func TestMissingBenchmarkFails(t *testing.T) {
	bench := "BenchmarkSchedulerHotPath-16 100 127.9 ns/op 0 B/op 0 allocs/op\n"
	_, err := guard(t, bench)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkTrial1Baseline: missing") {
		t.Fatalf("missing benchmark not reported: %v", err)
	}
	if out, err := guard(t, bench, "-allow-missing"); err != nil {
		t.Fatalf("-allow-missing still failed: %v\n%s", err, out)
	}
}

func TestMultipleSamplesFoldMinNsMaxAllocs(t *testing.T) {
	// -count 3 output: the slow middle sample must not fail the ns gate,
	// but the single allocating sample must fail the alloc gate.
	bench := `BenchmarkSchedulerHotPath-16 1 120.0 ns/op 0 B/op 0 allocs/op
BenchmarkSchedulerHotPath-16 1 400.0 ns/op 0 B/op 0 allocs/op
BenchmarkSchedulerHotPath-16 1 125.0 ns/op 0 B/op 0 allocs/op
BenchmarkTrial1Baseline-16 1 4900000 ns/op 0 B/op 35767 allocs/op
`
	if out, err := guard(t, bench); err != nil {
		t.Fatalf("noisy-but-healthy samples failed: %v\n%s", err, out)
	}
	bench = strings.Replace(bench, "125.0 ns/op 0 B/op 0 allocs/op",
		"125.0 ns/op 16 B/op 1 allocs/op", 1)
	if _, err := guard(t, bench); err == nil {
		t.Fatal("one allocating sample out of three passed")
	}
}

func TestGOMAXPROCSSuffixStripped(t *testing.T) {
	for _, suffix := range []string{"", "-4", "-128"} {
		bench := "BenchmarkSchedulerHotPath" + suffix + " 100 120.0 ns/op 0 B/op 0 allocs/op\n" +
			"BenchmarkTrial1Baseline" + suffix + " 5 4900000 ns/op 0 B/op 100 allocs/op\n"
		if out, err := guard(t, bench); err != nil {
			t.Fatalf("suffix %q not handled: %v\n%s", suffix, err, out)
		}
	}
}

func TestMalformedInputs(t *testing.T) {
	if _, err := guard(t, "BenchmarkSchedulerHotPath-16 100 oops ns/op\n"); err == nil {
		t.Fatal("garbage value accepted")
	}
	var sb strings.Builder
	if err := run([]string{"-baseline", "/nonexistent.json"}, strings.NewReader(""), &sb); err == nil {
		t.Fatal("missing baseline accepted")
	}
	p := filepath.Join(t.TempDir(), "empty.json")
	os.WriteFile(p, []byte(`{"benchmarks":{}}`), 0o644)
	if err := run([]string{"-baseline", p}, strings.NewReader(""), &sb); err == nil {
		t.Fatal("empty baseline accepted")
	}
}

func TestInputFileFlag(t *testing.T) {
	p := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(p, []byte(healthy), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-baseline", writeBaseline(t), "-input", p}, strings.NewReader("ignored"), &sb); err != nil {
		t.Fatalf("-input run failed: %v\n%s", err, sb.String())
	}
}
