// Allocation gates for the trial-3 frame path, the run that tolerance
// studies repeat up to 64 times. Every packet, TCP header and brake-status
// payload is recycled through the run's packet pool, so once the pools are
// warm a delivered segment costs (amortised) no allocation at all.
package vanetsim_test

import (
	"runtime"
	"testing"

	"vanetsim"
	"vanetsim/internal/packet"
)

// delivered counts the data segments that reached a sink, both platoons.
func delivered(r *vanetsim.TrialResult) int {
	n := 0
	for _, pr := range []*vanetsim.PlatoonResult{r.Platoon1, r.Platoon2} {
		for _, f := range pr.Comms.Flows() {
			n += f.Sink.Stats().SegmentsReceived
		}
	}
	return n
}

// trial3Mallocs runs trial 3 for d seconds and returns the heap objects
// the run allocated and the segments it delivered.
func trial3Mallocs(d float64) (mallocs uint64, segments int) {
	cfg := vanetsim.Trial3()
	cfg.Duration = vanetsim.Seconds(d)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := vanetsim.RunTrial(cfg)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, delivered(r)
}

// TestTrial3MarginalAllocs pins the steady-state cost of the trial-3 frame
// path: the extra heap objects a 40 s run allocates over a 20 s run,
// divided by the extra segments it delivers, must stay below one. Fixed
// per-run costs (building the world, the pools' warm-up, the analysis)
// cancel in the difference; what remains is the per-frame path — data
// segment, its clones, the TCP ACK, the MAC ACK and their payloads — plus
// the amortised growth of the delay series.
func TestTrial3MarginalAllocs(t *testing.T) {
	if !packet.Recycles {
		t.Skip("the checkall build quarantines released packets")
	}
	if testing.Short() {
		t.Skip("runs 60 s of simulated trial 3")
	}
	short, segShort := trial3Mallocs(20)
	long, segLong := trial3Mallocs(40)
	extra := segLong - segShort
	if extra < 1000 {
		t.Fatalf("40 s run delivered only %d more segments than 20 s (%d vs %d)", extra, segLong, segShort)
	}
	perSeg := float64(int64(long)-int64(short)) / float64(extra)
	t.Logf("%d extra segments, %d extra allocations: %.3f per segment", extra, int64(long)-int64(short), perSeg)
	if perSeg >= 1 {
		t.Fatalf("trial 3 allocates %.2f objects per delivered segment in steady state, want < 1", perSeg)
	}
}

// BenchmarkTrial3 is BENCH.json's end-to-end trial-3 row (`make
// bench-guard`): 20 s of 802.11 with TCP brake-status streams per op. Its
// allocs/op pins the pooled frame path; a per-frame allocation coming
// back shows up as thousands more.
func BenchmarkTrial3(b *testing.B) {
	cfg := vanetsim.Trial3()
	cfg.Duration = vanetsim.Seconds(20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r := vanetsim.RunTrial(cfg); delivered(r) == 0 {
			b.Fatal("trial 3 delivered nothing")
		}
	}
}
