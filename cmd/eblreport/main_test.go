package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestReportCoversEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("full three-trial report is slow")
	}
	var sb strings.Builder
	if err := run(nil, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"trial1", "trial2", "trial3",
		"One-way delay:", "Throughput:",
		"packet size (trial 1 vs trial 2)",
		"MAC type (trial 1 vs trial 3)",
		"stopping-distance analysis",
		"Fig5", "Fig7", "Fig8", "Fig10", "Fig11", "Fig15",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestToleranceReport(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptive replication report is slow")
	}
	// A generous tolerance and small budget keep the runtime bounded; the
	// structure of the report does not depend on either.
	var sb strings.Builder
	if err := run([]string{"-tolerance", "0.4", "-max-reps", "6"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Adaptive-precision replication",
		"sequential stopping on all four metrics",
		"tolerance ±40%",
		"achieved ±",
		"CRN paired comparison: TDMA (trial1) vs 802.11 (trial3)",
		"CRN paired comparison: 802.11 1000 B vs 500 B",
		"replications (95% CIs",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("tolerance report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "Figure shapes") {
		t.Fatal("-tolerance must print only the adaptive-precision report")
	}
	// The report must be byte-identical at any -j (the engine's
	// determinism contract at the CLI surface).
	var sb8 strings.Builder
	if err := run([]string{"-tolerance", "0.4", "-max-reps", "6", "-j", "8"}, &sb8); err != nil {
		t.Fatal(err)
	}
	if sb8.String() != out {
		t.Fatal("tolerance report differs between -j defaults and -j 8")
	}
}

// TestToleranceFlagValidation: a flag combination or stopping-rule value
// no study can run is an error before any output. A bad -tolerance or
// -max-reps once printed the report title and first section header.
func TestToleranceFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string // the flag the error must name, if any
	}{
		{[]string{"-max-reps", "8"}, ""},
		{[]string{"-tolerance", "-0.1"}, "-tolerance"},
		{[]string{"-tolerance", "0.05", "-max-reps", "1"}, "-max-reps"},
		// A budget below the stopping rule's 4-replication minimum can
		// never run.
		{[]string{"-tolerance", "0.05", "-max-reps", "3"}, "-max-reps"},
	} {
		var sb strings.Builder
		err := run(tc.args, &sb)
		if err == nil {
			t.Errorf("args %v accepted", tc.args)
		} else if !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("args %v: error %q does not name %s", tc.args, err, tc.flag)
		}
		if sb.Len() > 0 {
			t.Errorf("args %v printed before failing:\n%s", tc.args, sb.String())
		}
	}
}

func TestDegradationReport(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "deg.csv")
	var sb strings.Builder
	if err := run([]string{"-degrade", "-degrade-csv", csvPath}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Degradation under channel loss", "TDMA MAC", "802.11 MAC",
		"margin_m", "crash region",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("degradation report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "Figure shapes") {
		t.Fatal("-degrade must print only the degradation report")
	}
	raw, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	// One header + 7 loss rates x 2 MACs.
	if len(lines) != 15 {
		t.Fatalf("csv has %d lines, want 15:\n%s", len(lines), raw)
	}
	if lines[0] != "mac,loss_prob,avg_delay_s,max_delay_s,first_delay_s,throughput_mbps,tcp_retransmits,injected_drops,safety_margin_m,safe" {
		t.Fatalf("csv header wrong: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "TDMA,0,") || !strings.HasPrefix(lines[8], "802.11,0,") {
		t.Fatalf("csv rows out of order:\n%s", raw)
	}
}

// TestFlagConflicts: two report selectors, or a flag the selected report
// does not use, are a one-line error before any run. They were once
// resolved by precedence or silently ignored.
func TestFlagConflicts(t *testing.T) {
	for _, args := range [][]string{
		{"-tolerance", "0.05", "-degrade"},
		{"-tolerance", "0.05", "-latency-breakdown"},
		{"-latency-breakdown", "-degrade"},
		{"-degrade-csv", "x.csv"},
		{"-tolerance", "0.05", "-degrade-csv", "x.csv"},
		{"-latency-breakdown", "-degrade-csv", "x.csv"},
		{"-degrade", "-stats"},
		{"-degrade", "-stats-json", "x.ndjson"},
		{"-tolerance", "0.05", "-stats"},
		{"-latency-breakdown", "-stats-json", "x.ndjson"},
		{"-latency-breakdown", "-check"},
		{"-degrade", "-max-reps", "8"},
	} {
		var sb strings.Builder
		err := run(args, &sb)
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
