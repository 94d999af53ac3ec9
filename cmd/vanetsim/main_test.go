package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunTrialTables(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-trial", "1", "-duration", "40"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"TDMA MAC", "One-way delay", "Throughput", "Stopping-distance", "trial1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCSVFigure(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-trial", "1", "-duration", "40", "-csv", "Fig7"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "# Fig7") {
		t.Fatalf("CSV output wrong: %q", sb.String()[:40])
	}
}

func TestRunASCIIFigure(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-trial", "1", "-duration", "40", "-ascii", "fig5"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "packet ID") {
		t.Fatal("ASCII output missing axis labels")
	}
}

func TestRunCustomConfig(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-trial", "0", "-mac", "802.11", "-packet", "500", "-duration", "40"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "802.11 MAC, 500-byte") {
		t.Fatalf("custom config not honoured:\n%s", sb.String())
	}
}

func TestRunTraceOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.tr")
	var sb strings.Builder
	if err := run([]string{"-trial", "1", "-duration", "40", "-trace", path}, &sb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("trace file empty")
	}
	if !strings.Contains(sb.String(), "trace records") {
		t.Fatal("no confirmation message")
	}
}

func TestRunAnimation(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-trial", "1", "-duration", "30", "-anim"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "t=") || !strings.Contains(out, "= node") {
		t.Fatalf("animation output incomplete:\n%.200s", out)
	}
	// Both platoons' glyphs must appear somewhere.
	for _, g := range []string{"0", "5"} {
		if !strings.Contains(out, g) {
			t.Fatalf("glyph %s missing from animation", g)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-trial", "9"},
		{"-trial", "0", "-mac", "zigbee"},
		{"-trial", "1", "-duration", "40", "-csv", "Fig99"},
		{"-trial", "1", "-duration", "40", "-ascii", "nope"},
		// A non-finite run length once hung RunUntil (inf) or silently
		// fell back to the paper default (NaN, negative).
		{"-trial", "1", "-duration", "inf"},
		{"-trial", "1", "-duration", "NaN"},
		{"-trial", "1", "-duration", "-5"},
		{"-dense", "120", "-mac", "802.11", "-duration", "inf"},
		{"-dense", "40", "-mac", "zigbee"},
		// Trial-only flags once ran a plain dense run and wrote nothing.
		{"-dense", "40", "-duration", "2", "-loss", "0.5", "-trace", "x", "-csv", "Fig5", "-trial", "7"},
		{"-dense", "40", "-trial", "1"},
		{"-dense", "40", "-packet", "500"},
		{"-dense", "40", "-trace", "x.tr"},
		{"-dense", "40", "-anim"},
		{"-dense", "40", "-csv", "Fig5"},
		{"-dense", "40", "-ascii", "Fig5"},
		{"-dense", "40", "-loss", "0.1"},
		{"-dense", "40", "-ber", "1e-6"},
		{"-dense", "40", "-burst-loss", "0.1"},
		{"-dense", "40", "-burst-len", "4"},
		{"-dense", "40", "-shadow", "4"},
		{"-dense", "40", "-outage", "1:2:3"},
		// A bad -packet once panicked in the CBR source; flags that do not
		// apply to the chosen run were once silently ignored.
		{"-trial", "0", "-packet", "0"},
		{"-trial", "0", "-packet", "-5"},
		{"-trial", "1", "-packet", "500"},
		{"-trial", "2", "-mac", "802.11"},
		{"-trial", "3", "-mac", "tdma", "-packet", "1000"},
		{"-trial", "1", "-lanes", "9"},
		{"-platoon-len", "5"},
		{"-beacon-frac", "0.5"},
		{"-beacon-jitter", "0.1"},
		{"-safety-depth", "2"},
		{"-dense", "-3"},
		// A mean burst length below 1 frame once ran silently as 1, and
		// an infinite one injected no loss at all.
		{"-trial", "1", "-duration", "40", "-burst-loss", "0.1", "-burst-len", "0.5"},
		{"-trial", "1", "-duration", "40", "-burst-loss", "0.1", "-burst-len", "0"},
		{"-trial", "1", "-duration", "40", "-burst-loss", "0.1", "-burst-len", "-2"},
		{"-trial", "1", "-duration", "40", "-burst-loss", "0.1", "-burst-len", "NaN"},
		{"-trial", "1", "-duration", "40", "-burst-loss", "0.1", "-burst-len", "Inf"},
		{"-trial", "1", "-duration", "40", "-burst-loss", "0.1", "-burst-len", "-Inf"},
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Fatalf("args %v should fail", args)
		}
	}
}

func TestRunFaultFlags(t *testing.T) {
	var sb strings.Builder
	args := []string{"-trial", "1", "-duration", "30", "-stats",
		"-loss", "0.05", "-shadow", "4", "-outage", "1:22:5", "-outage", "4:10:3"}
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"fault/rx_impaired", "fault/rx_dropped_outage", "fault/outage_seconds",
		"fault/shadow_samples",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("faulted run output missing %q", want)
		}
	}

	sb.Reset()
	if err := run([]string{"-trial", "1", "-duration", "30", "-stats"}, &sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "fault/") {
		t.Fatal("unfaulted run leaked fault telemetry")
	}
}

func TestRunFaultFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-outage", "1:22"},
		{"-outage", "x:1:2"},
		{"-loss", "1.5"},
		{"-burst-loss", "-0.1"},
	} {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunDense(t *testing.T) {
	var culled strings.Builder
	if err := run([]string{"-dense", "48", "-duration", "6"}, &culled); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(culled.String(), "\n")
	if !strings.HasPrefix(lines[0], "dense highway — TDMA MAC, 48 vehicles, 4 lanes, 8 platoons (culled), 6 s simulated in ") {
		t.Fatalf("dense header wrong: %q", lines[0])
	}
	for i, want := range []string{"brake indications: ", "collisions: ", "safety traffic: ", "beacon traffic: ", "channel: "} {
		if !strings.HasPrefix(lines[2+i], want) {
			t.Fatalf("dense output line %d = %q, want prefix %q:\n%s", 3+i, lines[2+i], want, culled.String())
		}
	}
	_, culledBody, _ := strings.Cut(culled.String(), "\n")

	// -spans rides the shared output path: the file is written first, and
	// arming spans leaves the summary untouched.
	path := filepath.Join(t.TempDir(), "dense-spans.ndjson")
	var spanned strings.Builder
	if err := run([]string{"-dense", "48", "-duration", "6", "-spans", path}, &spanned); err != nil {
		t.Fatal(err)
	}
	wrote, rest, _ := strings.Cut(spanned.String(), "\n")
	if !strings.HasPrefix(wrote, "wrote ") || !strings.HasSuffix(wrote, " span events to "+path) {
		t.Fatalf("dense -spans confirmation wrong: %q", wrote)
	}
	if _, spannedBody, _ := strings.Cut(rest, "\n"); spannedBody != culledBody {
		t.Fatalf("arming spans changed the dense summary:\n%s\n---\n%s", spannedBody, culledBody)
	}
	if data, err := os.ReadFile(path); err != nil || len(data) == 0 {
		t.Fatalf("dense span file empty or unreadable (err %v)", err)
	}
}
