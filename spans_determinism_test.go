// Determinism gates for causal span tracing. Two properties are pinned:
//
//  1. Observation-only: arming TrialConfig.Spans must not change a single
//     output byte — the golden digests of TestHotPathDeterminismGolden
//     (pinned with spans disarmed) must keep matching with spans armed.
//  2. Parallel-stable: the armed span NDJSON itself must be byte-identical
//     whether the runs execute on a -j1 or a -j8 worker pool (each run owns
//     its recorder and a single-threaded scheduler, so parallelism may not
//     reorder events).
//
// CI runs both under the race detector.
package vanetsim_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"vanetsim"
	"vanetsim/internal/span"
)

// spanNDJSON serializes events exactly as vanetsim.WriteSpans does.
func spanNDJSON(t *testing.T, events []vanetsim.SpanEvent) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := span.WriteNDJSON(&buf, events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSpanDeterminismObservationOnly(t *testing.T) {
	c1 := vanetsim.Trial1()
	c1.Spans = true
	c3 := vanetsim.Trial3()
	c3.Spans = true
	checkGolden(t, map[string]goldenDigests{
		"trial1-tdma":  runGoldenCase(t, c1, vanetsim.Fig5),
		"trial3-80211": runGoldenCase(t, c3, vanetsim.Fig11),
	})
}

func TestSpanDeterminismParallel(t *testing.T) {
	mk := func() []vanetsim.TrialConfig {
		c1 := vanetsim.Trial1()
		c3 := vanetsim.Trial3()
		cfgs := []vanetsim.TrialConfig{c1, c3}
		for i := range cfgs {
			cfgs[i].Spans = true
			cfgs[i].Duration = vanetsim.Seconds(30)
		}
		return cfgs
	}
	seq := vanetsim.RunTrials(mk(), 1)
	par := vanetsim.RunTrials(mk(), 8)
	for i := range seq {
		name := seq[i].Config.Name
		a := spanNDJSON(t, seq[i].Spans)
		b := spanNDJSON(t, par[i].Spans)
		if len(seq[i].Spans) == 0 {
			t.Fatalf("%s: armed run recorded no span events", name)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: span NDJSON differs between -j1 and -j8 (%d vs %d bytes)",
				name, len(a), len(b))
		}
		// The Chrome exporter must stay valid JSON and deterministic too.
		var ca, cb bytes.Buffer
		if err := span.WriteChrome(&ca, seq[i].Spans); err != nil {
			t.Fatal(err)
		}
		if err := span.WriteChrome(&cb, par[i].Spans); err != nil {
			t.Fatal(err)
		}
		if !json.Valid(ca.Bytes()) {
			t.Errorf("%s: chrome trace is not valid JSON", name)
		}
		if !bytes.Equal(ca.Bytes(), cb.Bytes()) {
			t.Errorf("%s: chrome trace differs between -j1 and -j8", name)
		}
		// Every event must describe a live packet of this run. Layers hand
		// packets back to a pool, and the checkall build poisons what they
		// release, so an event recorded from a released packet carries an
		// impossible UID, size or type and fails here.
		allocated := seq[i].World.PF.Allocated()
		for _, e := range seq[i].Spans {
			if e.UID == 0 || e.UID > allocated || e.Size <= 0 || strings.HasPrefix(e.Type.String(), "type(") {
				t.Fatalf("%s: span event %+v names no packet of the run (%d allocated)", name, e, allocated)
			}
		}
		// Every delivered packet must decompose: the analyzer's component
		// sums may never exceed the measured total.
		for _, bd := range vanetsim.AnalyzeSpans(seq[i].Spans) {
			sum := bd.Queueing + bd.Contention + bd.Airtime + bd.Retransmit + bd.Rerouting + bd.Other
			if bd.Total < 0 || sum > bd.Total+1e-9 {
				t.Fatalf("%s: uid %d components %v exceed total %v", name, bd.UID, sum, bd.Total)
			}
		}
	}
}
