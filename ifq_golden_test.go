// Golden gate for the interface queue's observable events. Trial 1 (TDMA,
// where the queue fills and sets the paper's steady-state delay) runs for
// 40 s under each queue flavour, and trial 3 (802.11) under the paper's
// priority queue, with telemetry, the invariant checker and span tracing
// armed. A fifth run, trial 1 with a 4-packet priority queue, reaches the
// full-queue rejection and the control-over-data eviction that the
// 50-packet runs never do within 40 s. The span NDJSON (every enq, deq
// and ifq_drop with its cause) and the telemetry NDJSON (occupancy gauge
// and series, enqueued and dropped totals) are pinned by SHA-256 digests,
// so the queue's observation seam may be restructured but may not change
// a byte.
//
// Regenerate (only when an intentional behaviour change lands) with:
//
//	go test -run TestIfqObservationGolden -update-golden .
package vanetsim_test

import (
	"testing"

	"vanetsim"
)

const ifqGoldenPath = "testdata/ifq_golden.json"

func TestIfqObservationGolden(t *testing.T) {
	cases := []struct {
		name     string
		cfg      vanetsim.TrialConfig
		queue    vanetsim.QueueType
		capacity int // 0 keeps the trial's 50 packets
	}{
		{"trial1-pri", vanetsim.Trial1(), vanetsim.QueuePri, 0},
		{"trial1-droptail", vanetsim.Trial1(), vanetsim.QueueDropTail, 0},
		{"trial1-red", vanetsim.Trial1(), vanetsim.QueueRED, 0},
		{"trial3-pri", vanetsim.Trial3(), vanetsim.QueuePri, 0},
		{"trial1-pri-cap4", vanetsim.Trial1(), vanetsim.QueuePri, 4},
	}
	got := map[string]string{}
	for _, tc := range cases {
		cfg := tc.cfg
		cfg.Duration = vanetsim.Seconds(40)
		cfg.Queue = tc.queue
		if tc.capacity > 0 {
			cfg.QueueCap = tc.capacity
		}
		cfg.Telemetry, cfg.Check, cfg.Spans = true, true, true
		r := vanetsim.RunTrial(cfg)
		if n := len(r.Violations); n > 0 {
			t.Fatalf("%s: %d invariant violation(s), first: %v", tc.name, n, r.Violations[0].Error())
		}
		if r.Telemetry == nil || len(r.Spans) == 0 {
			t.Fatalf("%s: armed run returned no telemetry or no spans", tc.name)
		}
		got[tc.name+"/telemetry"] = sha(telemetryNDJSON(t, r.Telemetry))
		got[tc.name+"/spans"] = sha(spanNDJSON(t, r.Spans))
	}
	checkDigests(t, ifqGoldenPath, got)
}
