package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sampleTrace is a tiny hand-written trace: two sends, two receives.
const sampleTrace = `s 1.000000 _0_ AGT --- 1 tcp 1040 [0:100 1:200] 1
r 1.250000 _1_ AGT --- 1 tcp 1040 [0:100 1:200] 1
s 2.000000 _0_ AGT --- 2 tcp 1040 [0:100 1:200] 2
r 2.300000 _1_ AGT --- 2 tcp 1040 [0:100 1:200] 2
`

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.tr")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestAnalyzeSampleTrace(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{writeTemp(t, sampleTrace)}, strings.NewReader(""), &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "4 trace records") {
		t.Fatalf("record count wrong:\n%s", out)
	}
	if !strings.Contains(out, "0:100->1:200") {
		t.Fatalf("flow missing:\n%s", out)
	}
	// Average of 0.25 and 0.30 = 0.275.
	if !strings.Contains(out, "0.2750") {
		t.Fatalf("avg delay wrong:\n%s", out)
	}
	if !strings.Contains(out, "Throughput per receiving node") {
		t.Fatal("throughput section missing")
	}
}

func TestUsageErrors(t *testing.T) {
	if err := run(nil, strings.NewReader(""), &strings.Builder{}); err == nil {
		t.Fatal("no args should fail")
	}
	if err := run([]string{"/nonexistent/file.tr"}, strings.NewReader(""), &strings.Builder{}); err == nil {
		t.Fatal("missing file should fail")
	}
	if err := run([]string{writeTemp(t, "garbage\n")}, strings.NewReader(""), &strings.Builder{}); err == nil {
		t.Fatal("malformed trace should fail")
	}
	if err := run([]string{"-format", "bogus", "-"}, strings.NewReader(sampleTrace), &strings.Builder{}); err == nil {
		t.Fatal("unknown format should fail")
	}
}

func TestStdinDash(t *testing.T) {
	// "-" reads the trace from the in reader instead of a file.
	var sb strings.Builder
	if err := run([]string{"-"}, strings.NewReader(sampleTrace), &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "4 trace records") {
		t.Fatalf("stdin trace not parsed:\n%s", out)
	}
	if !strings.Contains(out, "0:100->1:200") {
		t.Fatalf("flow missing from stdin analysis:\n%s", out)
	}
}

func TestChromeFormat(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-format", "chrome", "-"}, strings.NewReader(sampleTrace), &sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v\n%s", err, sb.String())
	}
	// 4 instants plus 2 send/recv flight pairs.
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("want 6 trace events, got %d", len(doc.TraceEvents))
	}
	flights := 0
	for _, e := range doc.TraceEvents {
		if e.Name != "flight" {
			continue
		}
		flights++
		if e.Ph != "X" || e.Dur <= 0 || e.Tid != 1 {
			t.Fatalf("bad flight event: %+v", e)
		}
	}
	if flights != 2 {
		t.Fatalf("want 2 flight events, got %d", flights)
	}
}

func TestEndToEndWithGeneratedTrace(t *testing.T) {
	// vanetsim -trace | ebltrace round trip, in-process.
	path := filepath.Join(t.TempDir(), "gen.tr")
	genTrace(t, path)
	var sb strings.Builder
	if err := run([]string{path}, strings.NewReader(""), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "One-way delay per flow") {
		t.Fatal("analysis incomplete")
	}
}

// TestFlagErrors: a -bin that is not a positive finite width once
// panicked in the throughput binning (0, negative) or indexed out of
// range (NaN), and -format chrome silently ignored the report-only
// flags. Each is now a one-line error before any output.
func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-bin", "0", "-"},
		{"-bin", "-0.5", "-"},
		{"-bin", "NaN", "-"},
		{"-bin", "+Inf", "-"},
		{"-format", "chrome", "-bin", "0.5", "-"},
		{"-format", "chrome", "-stats", "-"},
		{"-format", "chrome", "-stats-json", "x.ndjson", "-"},
	} {
		var sb strings.Builder
		err := run(args, strings.NewReader(sampleTrace), &sb)
		if err == nil {
			t.Errorf("args %v accepted", args)
			continue
		}
		if strings.Contains(err.Error(), "\n") {
			t.Errorf("args %v: error spans lines: %q", args, err)
		}
		if sb.Len() > 0 {
			t.Errorf("args %v printed before failing:\n%s", args, sb.String())
		}
	}
}
