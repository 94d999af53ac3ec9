// Determinism gate for the fault-injection layer: impairments draw from
// per-link RNG streams forked from the run seed, so a faulted run must be
// byte-identical between sequential and parallel execution — and its
// digests are pinned in the same golden file as the unfaulted hot-path
// cases, whose keys this test must never disturb.
//
// Regenerate (only when an intentional behaviour change lands) with:
//
//	go test -run 'DeterminismGolden|FaultDeterminism' -update-golden .
package vanetsim_test

import (
	"bytes"
	"testing"

	"vanetsim"
	"vanetsim/internal/trace"
)

// goldenFaultPlan exercises every impairment at once: composed Bernoulli
// and bursty loss, shadowing, and an outage that lands inside the 30 s
// golden window while platoon 1 communicates.
func goldenFaultPlan() vanetsim.FaultPlan {
	return vanetsim.FaultPlan{
		Bernoulli:     vanetsim.FaultBernoulli{LossProb: 0.05, BitErrorRate: 1e-6},
		Burst:         vanetsim.BurstFault(0.1, 4),
		ShadowSigmaDB: 4,
		Outages:       []vanetsim.FaultOutage{{Node: 1, Start: vanetsim.Seconds(22), Duration: vanetsim.Seconds(5)}},
	}
}

func faulted(cfg vanetsim.TrialConfig) vanetsim.TrialConfig {
	cfg.Faults = goldenFaultPlan()
	return cfg
}

// TestFaultDeterminism pins the faulted runs' digests in the golden file
// and proves a -j1 / -j8 worker pool reproduces them byte for byte.
func TestFaultDeterminism(t *testing.T) {
	checkGolden(t, map[string]goldenDigests{
		"trial1-tdma-faulted":  runGoldenCase(t, faulted(vanetsim.Trial1()), vanetsim.Fig5),
		"trial3-80211-faulted": runGoldenCase(t, faulted(vanetsim.Trial3()), vanetsim.Fig11),
	})

	// Parallel-pool byte-identity: the same two faulted configurations,
	// run twice per pool width, must produce identical traces and
	// telemetry NDJSON at -j1 and -j8.
	cfgs := make([]vanetsim.TrialConfig, 0, 4)
	for _, base := range []vanetsim.TrialConfig{vanetsim.Trial1(), vanetsim.Trial3()} {
		cfg := faulted(base)
		cfg.Duration = vanetsim.Seconds(30)
		cfg.CollectTrace = true
		cfg.Telemetry = true
		cfgs = append(cfgs, cfg, cfg)
	}
	digest := func(jobs int) []string {
		results := vanetsim.RunTrials(cfgs, jobs)
		out := make([]string, 0, len(results))
		for _, r := range results {
			var tr bytes.Buffer
			if err := trace.WriteAll(&tr, r.Trace); err != nil {
				t.Fatal(err)
			}
			out = append(out, sha(tr.Bytes())+"/"+sha(telemetryNDJSON(t, r.Telemetry)))
		}
		return out
	}
	seq, par := digest(1), digest(8)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("faulted run %d differs between -j1 and -j8:\n%s\nvs\n%s", i, seq[i], par[i])
		}
	}
	// The duplicated configurations must also agree with each other —
	// per-link streams are forked from the run seed, never from shared
	// global state.
	if seq[0] != seq[1] || seq[2] != seq[3] {
		t.Fatal("identical faulted configurations diverged within one pool")
	}
}
