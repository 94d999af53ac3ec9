package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vanetsim"
	"vanetsim/internal/scenario"
	"vanetsim/internal/service/canon"
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
		{"-outage", "4294967297:10:5"},
		{"-outage", "99:10:5"},
		{"-burst-loss", "0.9", "-burst-len", "1"},
	} {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// stderrOf runs fn with os.Stderr redirected to a file and returns what fn
// wrote there.
func stderrOf(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	defer func() { os.Stderr = saved }()
	fn()
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFlagErrorsOneLine pins the flag errors' shape: a malformed or
// unknown flag is one error line for main to print, with no usage dump on
// stderr; -h prints the usage and returns flag.ErrHelp, which main does
// not report as a failure.
func TestFlagErrorsOneLine(t *testing.T) {
	for _, args := range [][]string{
		{"-outage", "x:1:2"},
		{"-outage", "4294967297:10:5"},
		{"-duration", "soon"},
		{"-bogus"},
	} {
		var err error
		if got := stderrOf(t, func() { _, err = parse(args) }); got != "" {
			t.Errorf("%v wrote to stderr:\n%s", args, got)
		}
		if err == nil || strings.Contains(err.Error(), "\n") {
			t.Errorf("%v: error %q, want one line", args, err)
		}
	}
	var err error
	usage := stderrOf(t, func() { _, err = parse([]string{"-h"}) })
	if !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: error %v, want flag.ErrHelp", err)
	}
	if !strings.HasPrefix(usage, "Usage of vanetsim:") || !strings.Contains(usage, "-outage") {
		t.Errorf("-h printed %q, want the usage", usage)
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

// TestFrontDoorAgrees: the command line and the service's JSON request
// go through one canon.Canonicalize, so each flag list and the request
// it spells either both fail or both succeed with one canon.Hash. The
// request side is built in Go because JSON cannot carry NaN or Inf.
func TestFrontDoorAgrees(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	trial := func(tr canon.TrialRequest) canon.Request { return canon.Request{Kind: canon.KindTrial, Trial: &tr} }
	faults := func(fr canon.FaultRequest) canon.Request {
		return trial(canon.TrialRequest{Trial: 1, DurationS: 40, Faults: &fr})
	}
	outages := func(os ...canon.OutageRequest) canon.Request { return faults(canon.FaultRequest{Outages: os}) }
	dense := func(dr canon.DenseRequest) canon.Request { return canon.Request{Kind: canon.KindDense, Dense: &dr} }
	inf := math.Inf(1)
	for _, c := range []struct {
		args []string
		req  canon.Request
	}{
		// Disagreements the command line once had with the service.
		{[]string{"-dense", "10", "-beacon-frac", "NaN"}, dense(canon.DenseRequest{Vehicles: 10, BeaconFraction: f(math.NaN())})},
		{[]string{"-dense", "10", "-safety-depth", "-1"}, dense(canon.DenseRequest{Vehicles: 10, SafetyDepth: -1})},
		{[]string{"-duration", "40", "-shadow", "Inf"}, faults(canon.FaultRequest{ShadowDB: inf})},
		{[]string{"-duration", "40", "-outage", "1:-5:3"}, outages(canon.OutageRequest{Node: 1, StartS: -5, DurationS: 3})},
		{[]string{"-duration", "40", "-outage", "1:5:0"}, outages(canon.OutageRequest{Node: 1, StartS: 5})},
		{[]string{"-duration", "40", "-outage", "1:10:5", "-outage", "1:15:5"},
			outages(canon.OutageRequest{Node: 1, StartS: 10, DurationS: 5}, canon.OutageRequest{Node: 1, StartS: 15, DurationS: 5})},
		{[]string{"-duration", "40", "-outage", "1:15:5", "-outage", "1:10:5"},
			outages(canon.OutageRequest{Node: 1, StartS: 15, DurationS: 5}, canon.OutageRequest{Node: 1, StartS: 10, DurationS: 5})},
		{[]string{"-duration", "40", "-outage", "1:10:10", "-outage", "1:12:3"},
			outages(canon.OutageRequest{Node: 1, StartS: 10, DurationS: 10}, canon.OutageRequest{Node: 1, StartS: 12, DurationS: 3})},
		{[]string{"-duration", "40", "-outage", "-1:5:3"}, outages(canon.OutageRequest{Node: -1, StartS: 5, DurationS: 3})},
		{[]string{"-duration", "40", "-outage", "99:10:5"}, outages(canon.OutageRequest{Node: 99, StartS: 10, DurationS: 5})},
		{[]string{"-duration", "40", "-outage", "6:10:5"}, outages(canon.OutageRequest{Node: 6, StartS: 10, DurationS: 5})},
		{[]string{"-duration", "40", "-burst-loss", "0.9", "-burst-len", "1"}, faults(canon.FaultRequest{BurstLoss: 0.9, BurstLen: 1})},
		// TestRunErrors' burst rows, bar the typed 0 the wire cannot spell.
		{[]string{"-duration", "40", "-burst-loss", "0.1", "-burst-len", "0.5"}, faults(canon.FaultRequest{BurstLoss: 0.1, BurstLen: 0.5})},
		{[]string{"-duration", "40", "-burst-loss", "0.1", "-burst-len", "-2"}, faults(canon.FaultRequest{BurstLoss: 0.1, BurstLen: -2})},
		{[]string{"-duration", "40", "-burst-loss", "0.1", "-burst-len", "NaN"}, faults(canon.FaultRequest{BurstLoss: 0.1, BurstLen: math.NaN()})},
		{[]string{"-duration", "40", "-burst-loss", "0.1", "-burst-len", "Inf"}, faults(canon.FaultRequest{BurstLoss: 0.1, BurstLen: inf})},
		{[]string{"-duration", "40", "-burst-loss", "0.1", "-burst-len", "-Inf"}, faults(canon.FaultRequest{BurstLoss: 0.1, BurstLen: -inf})},
		{[]string{"-burst-loss", "-0.1"}, trial(canon.TrialRequest{Trial: 1, Faults: &canon.FaultRequest{BurstLoss: -0.1}})},
		{[]string{"-loss", "1.5"}, trial(canon.TrialRequest{Trial: 1, Faults: &canon.FaultRequest{Loss: 1.5}})},
		// Run shapes and their limits.
		{[]string{"-dense", "1"}, dense(canon.DenseRequest{Vehicles: 1})},
		{[]string{"-dense", "-3"}, dense(canon.DenseRequest{Vehicles: -3})},
		{[]string{"-dense", "48", "-beacon-jitter", "1"}, dense(canon.DenseRequest{Vehicles: 48, BeaconJitter: 1})},
		{[]string{"-dense", "48", "-duration", "inf"}, dense(canon.DenseRequest{Vehicles: 48, DurationS: inf})},
		{[]string{"-duration", "NaN"}, trial(canon.TrialRequest{Trial: 1, DurationS: math.NaN()})},
		{[]string{"-duration", "-5"}, trial(canon.TrialRequest{Trial: 1, DurationS: -5})},
		{[]string{"-trial", "9"}, trial(canon.TrialRequest{Trial: 9})},
		{[]string{"-trial", "0", "-packet", "-5"}, trial(canon.TrialRequest{Packet: -5})},
		{[]string{"-trial", "0"}, trial(canon.TrialRequest{})},
		{[]string{"-trial", "0", "-packet", "500"}, trial(canon.TrialRequest{Packet: 500})},
		{[]string{"-trial", "0", "-mac", "802.11", "-packet", "500", "-seed", "7"}, trial(canon.TrialRequest{MAC: "dcf", Packet: 500, Seed: 7})},
		{[]string{"-trial", "3", "-stats", "-check"}, trial(canon.TrialRequest{Trial: 3, Telemetry: true, Check: true})},
		{[]string{"-dense", "48"}, dense(canon.DenseRequest{Vehicles: 48})},
		{[]string{"-dense", "48", "-beacon-frac", "0"}, dense(canon.DenseRequest{Vehicles: 48, BeaconFraction: f(0)})},
		{[]string{"-dense", "48", "-beacon-frac", "0.25"}, dense(canon.DenseRequest{Vehicles: 48})},
		{[]string{"-dense", "48", "-mac", "802.11", "-lanes", "3", "-platoon-len", "5", "-beacon-jitter", "0.1", "-safety-depth", "2", "-duration", "8", "-stats"},
			dense(canon.DenseRequest{Vehicles: 48, MAC: "802.11", Lanes: 3, PlatoonLen: 5, BeaconJitter: 0.1, SafetyDepth: 2, DurationS: 8, Telemetry: true})},
		// One accepted case per fault field.
		{[]string{"-duration", "40"}, trial(canon.TrialRequest{Trial: 1, DurationS: 40})},
		{[]string{"-duration", "40", "-loss", "0.05"}, faults(canon.FaultRequest{Loss: 0.05})},
		{[]string{"-duration", "40", "-ber", "1e-6"}, faults(canon.FaultRequest{BER: 1e-6})},
		{[]string{"-duration", "40", "-burst-loss", "0.1"}, faults(canon.FaultRequest{BurstLoss: 0.1})},
		{[]string{"-duration", "40", "-burst-loss", "0.1", "-burst-len", "2"}, faults(canon.FaultRequest{BurstLoss: 0.1, BurstLen: 2})},
		{[]string{"-duration", "40", "-shadow", "4"}, faults(canon.FaultRequest{ShadowDB: 4})},
		{[]string{"-duration", "40", "-outage", "4:10:3", "-outage", "1:22:5"},
			outages(canon.OutageRequest{Node: 1, StartS: 22, DurationS: 5}, canon.OutageRequest{Node: 4, StartS: 10, DurationS: 3})},
		{[]string{"-duration", "40", "-outage", "5:10:5"}, outages(canon.OutageRequest{Node: 5, StartS: 10, DurationS: 5})},
		{[]string{"-duration", "40", "-burst-loss", "0.5", "-burst-len", "1"}, faults(canon.FaultRequest{BurstLoss: 0.5, BurstLen: 1})},
		// The edge L/(1−L) runs even where PGoodBad rounds a few ulps over 1.
		{[]string{"-duration", "40", "-burst-loss", "0.8", "-burst-len", "4"}, faults(canon.FaultRequest{BurstLoss: 0.8, BurstLen: 4})},
	} {
		cl, cliErr := parse(c.args)
		want, reqErr := canon.Canonicalize(c.req)
		switch {
		case (cliErr == nil) != (reqErr == nil):
			t.Errorf("%v: command line error %v, request error %v", c.args, cliErr, reqErr)
		case cliErr == nil && cl.c.Hash() != want.Hash():
			t.Errorf("%v: command line and request hash apart:\n%s\n%s", c.args, cl.c.AppendBinary(nil), want.AppendBinary(nil))
		}
	}
	// A node wider than packet.NodeID, which Go cannot spell in a request,
	// fails at both doors instead of wrapping onto node 1.
	if _, err := parse([]string{"-duration", "40", "-outage", "4294967297:10:5"}); err == nil {
		t.Error("-outage 4294967297:10:5 accepted")
	}
	if _, err := canon.Decode(strings.NewReader(`{"kind":"trial","trial":{"trial":1,"duration_s":40,"faults":{"outages":[{"node":4294967297,"start_s":10,"duration_s":5}]}}}`)); err == nil {
		t.Error("outage node 4294967297 decoded")
	}
	// A typed 0 for a flag that never defaults to 0 is refused, although
	// the wire reads the same 0 as "the default".
	for _, args := range [][]string{
		{"-trial", "0", "-packet", "0"},
		{"-duration", "40", "-burst-loss", "0.1", "-burst-len", "0"},
		{"-dense", "48", "-lanes", "0"},
		{"-dense", "48", "-platoon-len", "0"},
	} {
		if _, err := parse(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestOutageWindowsSound: two windows on one node that touch or overlap
// are refused at every door, and an accepted plan runs the same whatever
// the order of its -outage flags.
func TestOutageWindowsSound(t *testing.T) {
	for _, pair := range [][2]string{{"1:10:5", "1:15:5"}, {"1:10:10", "1:12:3"}} {
		if err := run([]string{"-duration", "40", "-outage", pair[0], "-outage", pair[1]}, io.Discard); err == nil {
			t.Errorf("vanetsim accepted outages %v", pair)
		}
		var stack = scenario.DefaultStackConfig(scenario.MACTDMA)
		for _, s := range pair {
			o, err := vanetsim.ParseFaultOutage(s)
			if err != nil {
				t.Fatal(err)
			}
			stack.Faults.Outages = append(stack.Faults.Outages, o)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWorld accepted outages %v", pair)
				}
			}()
			scenario.NewWorld(stack, 1)
		}()
	}

	// These windows' lengths round differently when summed in another
	// order, so the outage_seconds gauge would see the flag order if the
	// plan kept it.
	ndjson := func(outages ...string) []byte {
		path := filepath.Join(t.TempDir(), "m.ndjson")
		args := []string{"-duration", "30", "-stats-json", path}
		for _, o := range outages {
			args = append(args, "-outage", o)
		}
		if err := run(args, io.Discard); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a := ndjson("1:0:0.1", "4:0:0.1", "1:3:0.1", "4:12:1.3")
	b := ndjson("4:12:1.3", "1:3:0.1", "4:0:0.1", "1:0:0.1")
	if !bytes.Contains(a, []byte("fault/outage_seconds")) {
		t.Fatal("outage telemetry missing")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("flag order changed the run's telemetry:\n%s\n---\n%s", a, b)
	}
}
