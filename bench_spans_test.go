// Span-tracing overhead benchmark pair: BenchmarkTrial1SpansDisarmed and
// BenchmarkTrial1Spans run the identical deterministic trial with causal
// tracing off and on. Compare them with
//
//	go test -bench='BenchmarkTrial1Spans' -benchmem .
//
// Disarmed, every instrumented seam pays exactly one nil comparison, so
// the disarmed run must match BenchmarkTrial1Baseline to the allocation —
// BenchmarkTrial1SpansDisarmed is a BENCH.json row (`make bench-guard`)
// precisely to pin that. The armed run appends one Event per lifecycle
// step per packet and is deliberately NOT guarded: its cost scales with
// traffic, not with hot-path discipline.
package vanetsim_test

import (
	"testing"

	"vanetsim"
)

func benchTrial1Spans(b *testing.B, spans bool) {
	cfg := vanetsim.Trial1()
	cfg.Duration = vanetsim.Seconds(40)
	cfg.Spans = spans
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := vanetsim.RunTrial(cfg)
		if spans {
			if len(r.Spans) == 0 {
				b.Fatal("armed run recorded no span events")
			}
		} else if r.Spans != nil {
			b.Fatal("disarmed run leaked span events")
		}
	}
}

func BenchmarkTrial1SpansDisarmed(b *testing.B) { benchTrial1Spans(b, false) }
func BenchmarkTrial1Spans(b *testing.B)         { benchTrial1Spans(b, true) }
