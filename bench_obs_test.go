// Telemetry overhead benchmark pair: BenchmarkTrial1Baseline and
// BenchmarkTrial1Instrumented run the identical deterministic trial with
// telemetry off and on. Compare them with
//
//	go test -bench='BenchmarkTrial1(Baseline|Instrumented)' -benchmem .
//
// The instrumented run is expected to stay within ~10% of the baseline:
// counters are harvested once after the run, so the only per-event costs
// are the scheduler's per-kind tally, the queue decorator's gauge/series
// updates, and a few histogram observations per packet.
package vanetsim_test

import (
	"testing"

	"vanetsim"
)

func benchTrial1(b *testing.B, telemetry bool) {
	cfg := vanetsim.Trial1()
	cfg.Duration = vanetsim.Seconds(40)
	cfg.Telemetry = telemetry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := vanetsim.RunTrial(cfg)
		if telemetry {
			if r.Telemetry == nil {
				b.Fatal("missing telemetry snapshot")
			}
			if n, ok := r.Telemetry.Counter("sched/events_executed"); !ok || n == 0 {
				b.Fatal("empty telemetry snapshot")
			}
		} else if r.Telemetry != nil {
			b.Fatal("unexpected telemetry snapshot")
		}
	}
}

func BenchmarkTrial1Baseline(b *testing.B)     { benchTrial1(b, false) }
func BenchmarkTrial1Instrumented(b *testing.B) { benchTrial1(b, true) }

// BenchmarkTrial1Checked is the invariant checker's cost counterpart:
// the same trial with TrialConfig.Check armed. Compare against
// BenchmarkTrial1Baseline for the README's measured overhead number. It
// is deliberately NOT in BENCH.json — `make bench-guard` pins the
// checks-off hot path.
func BenchmarkTrial1Checked(b *testing.B) {
	cfg := vanetsim.Trial1()
	cfg.Duration = vanetsim.Seconds(40)
	cfg.Check = true
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := vanetsim.RunTrial(cfg)
		if len(r.Violations) > 0 {
			b.Fatalf("checked run dirty: %v", r.Violations[0].Error())
		}
	}
}
