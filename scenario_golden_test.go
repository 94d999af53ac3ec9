// Observation-only gate for the three extension scenarios: highway
// emergency braking, jamming and the dense multi-lane highway. Each runs
// on both MACs twice, once with telemetry, the invariant checker and span
// tracing all disarmed and once with all three armed. The outcome text
// must be identical between the two runs, and the armed run's outcome,
// telemetry NDJSON and span NDJSON are pinned by SHA-256 digests, so the
// observation plumbing may be restructured but may not change a byte.
//
// Regenerate (only when an intentional behaviour change lands) with:
//
//	go test -run TestScenarioObservationGolden -update-golden .
package vanetsim_test

import (
	"fmt"
	"strings"
	"testing"

	"vanetsim"
)

const scenarioGoldenPath = "testdata/scenario_golden.json"

// scenarioRun is one extension-scenario run reduced to what the golden
// pins: its outcome rendered as text plus its observations.
type scenarioRun struct {
	outcome    string
	telemetry  *vanetsim.Telemetry
	violations int
	spans      []vanetsim.SpanEvent
}

func highwayOutcome(r *vanetsim.HighwayResult) string {
	var b strings.Builder
	for _, ind := range r.Indications {
		fmt.Fprintf(&b, "vehicle %v: indication %v blind %v gap %v collided %v\n",
			ind.Vehicle, float64(ind.IndicationDelay), ind.DistanceBlind, ind.FinalGap, ind.Collided)
	}
	fmt.Fprintf(&b, "collisions %d\n", r.Collisions)
	return b.String()
}

func jammingOutcome(r *vanetsim.JammingResult) string {
	var b strings.Builder
	for _, f := range r.Flows {
		fmt.Fprintf(&b, "flow to %v: sent %d received %d ratio %v delays %v\n",
			f.Receiver, f.Sent, f.Received, f.DeliveryRatio, f.Delays.Delays())
	}
	fmt.Fprintf(&b, "overall %v jammer bursts %d tx errors %d\n",
		r.OverallDelivery, r.Jammer.Bursts(), r.Jammer.TxErrors())
	return b.String()
}

func denseOutcome(r *vanetsim.DenseHighwayResult) string {
	var b strings.Builder
	b.WriteString(vanetsim.FormatDenseSummary(r))
	for _, ind := range r.Indications {
		fmt.Fprintf(&b, "vehicle %v: indication %v blind %v gap %v collided %v\n",
			ind.Vehicle, float64(ind.IndicationDelay), ind.DistanceBlind, ind.FinalGap, ind.Collided)
	}
	fmt.Fprintf(&b, "rx collided %d channel %+v\n", r.RxCollided, r.Channel)
	return b.String()
}

// scenarioCases returns each case's runner; armed switches telemetry, the
// invariant checker and span tracing on together.
func scenarioCases() map[string]func(t *testing.T, armed bool) scenarioRun {
	cases := map[string]func(t *testing.T, armed bool) scenarioRun{}
	for _, mac := range []vanetsim.MACType{vanetsim.MACTDMA, vanetsim.MAC80211} {
		mac := mac
		slug := strings.ToLower(strings.ReplaceAll(mac.String(), ".", ""))
		cases["highway-"+slug] = func(t *testing.T, armed bool) scenarioRun {
			cfg := vanetsim.DefaultHighway(mac, 5)
			cfg.Duration = vanetsim.Seconds(20)
			cfg.Telemetry, cfg.Check, cfg.Spans = armed, armed, armed
			r, err := vanetsim.RunHighway(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return scenarioRun{highwayOutcome(r), r.Telemetry, len(r.Violations), r.Spans}
		}
		cases["jamming-"+slug] = func(t *testing.T, armed bool) scenarioRun {
			cfg := vanetsim.DefaultJamming(mac)
			cfg.Duration = vanetsim.Seconds(20)
			cfg.Telemetry, cfg.Check, cfg.Spans = armed, armed, armed
			r, err := vanetsim.RunJamming(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return scenarioRun{jammingOutcome(r), r.Telemetry, len(r.Violations), r.Spans}
		}
		cases["dense-"+slug] = func(t *testing.T, armed bool) scenarioRun {
			cfg := vanetsim.DefaultDenseHighway(mac, 40)
			cfg.Duration = vanetsim.Seconds(6)
			cfg.Telemetry, cfg.Check, cfg.Spans = armed, armed, armed
			r, err := vanetsim.RunDenseHighway(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return scenarioRun{denseOutcome(r), r.Telemetry, len(r.Violations), r.Spans}
		}
	}
	return cases
}

func TestScenarioObservationGolden(t *testing.T) {
	got := map[string]string{}
	for name, run := range scenarioCases() {
		off := run(t, false)
		on := run(t, true)
		if off.outcome != on.outcome {
			t.Errorf("%s: outcome differs with instruments armed:\n--- off\n%s--- on\n%s", name, off.outcome, on.outcome)
		}
		if on.violations > 0 {
			t.Errorf("%s: %d invariant violation(s)", name, on.violations)
		}
		if on.telemetry == nil || len(on.spans) == 0 {
			t.Fatalf("%s: armed run returned no telemetry or no spans", name)
		}
		got[name+"/outcome"] = sha([]byte(on.outcome))
		got[name+"/telemetry"] = sha(telemetryNDJSON(t, on.telemetry))
		got[name+"/spans"] = sha(spanNDJSON(t, on.spans))
	}
	checkDigests(t, scenarioGoldenPath, got)
}
