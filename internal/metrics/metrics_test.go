package metrics_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vanetsim/internal/metrics"
	"vanetsim/internal/scenario"
	"vanetsim/internal/sim"
	"vanetsim/internal/stats"
)

func TestDelaySeriesBasics(t *testing.T) {
	var s metrics.DelaySeries
	s.Add(1, 0.1)
	s.Add(2, 0.3)
	s.Add(3, 0.2)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	sm := s.Summary()
	if !almost(sm.Mean, 0.2) || sm.Min != 0.1 || sm.Max != 0.3 {
		t.Fatalf("summary = %+v", sm)
	}
	first, ok := s.First()
	if !ok || first != 0.1 {
		t.Fatalf("First = %v, %v", first, ok)
	}
}

func TestDelaySeriesFirstEmpty(t *testing.T) {
	var s metrics.DelaySeries
	if _, ok := s.First(); ok {
		t.Fatal("empty series should report no first packet")
	}
}

func TestTruncationIndexFindsWarmup(t *testing.T) {
	// A clear warm-up ramp followed by flat steady state.
	var s metrics.DelaySeries
	id := 1
	for i := 0; i < 50; i++ { // ramp 0 -> 2.5
		s.Add(id, sim.Time(float64(i)*0.05))
		id++
	}
	for i := 0; i < 200; i++ { // steady at 2.6
		s.Add(id, 2.6)
		id++
	}
	cut := s.TruncationIndex()
	if cut < 30 || cut > 80 {
		t.Fatalf("truncation at %d, want near the end of the 50-point ramp", cut)
	}
	_, level := s.SteadyState()
	if math.Abs(level-2.6) > 0.05 {
		t.Fatalf("steady level = %v, want ~2.6", level)
	}
}

func TestTruncationIndexFlatSeries(t *testing.T) {
	var s metrics.DelaySeries
	for i := 1; i <= 100; i++ {
		s.Add(i, 1.0)
	}
	if cut := s.TruncationIndex(); cut != 0 {
		t.Fatalf("flat series truncated at %d, want 0", cut)
	}
}

func TestTruncationIndexShortSeries(t *testing.T) {
	var s metrics.DelaySeries
	s.Add(1, 1)
	if s.TruncationIndex() != 0 {
		t.Fatal("tiny series must not truncate")
	}
	_, level := s.SteadyState()
	if level != 1 {
		t.Fatalf("steady level of single point = %v", level)
	}
}

func TestSteadyStateEmpty(t *testing.T) {
	var s metrics.DelaySeries
	pts, level := s.SteadyState()
	if pts != nil || level != 0 {
		t.Fatal("empty series steady state should be nil, 0")
	}
}

func TestThroughputBinning(t *testing.T) {
	tp := metrics.NewThroughput(0.5)
	tp.Add(0.1, 62500)  // 62500 B in bin 0 -> 1 Mbps over 0.5 s
	tp.Add(0.6, 125000) // bin 1 -> 2 Mbps
	tp.Add(0.7, 0)
	series := tp.SeriesUntil(1.5)
	if len(series) != 3 {
		t.Fatalf("bins = %d, want 3", len(series))
	}
	if !almost(series[0].Mbps, 1.0) || !almost(series[1].Mbps, 2.0) || series[2].Mbps != 0 {
		t.Fatalf("series = %+v", series)
	}
	if series[1].T != 0.5 {
		t.Fatalf("bin 1 starts at %v", series[1].T)
	}
	if tp.TotalBytes() != 187500 {
		t.Fatalf("total bytes = %d", tp.TotalBytes())
	}
}

// Regression: the final bin of a series cut mid-bin used to be normalised
// by the full bin width, under-reporting the closing rate. 31250 bytes in
// the quarter-second tail [1.0, 1.25) is 1 Mbps, not the 0.5 Mbps a full
// 0.5 s divisor would claim.
func TestThroughputFinalPartialBinNormalized(t *testing.T) {
	tp := metrics.NewThroughput(0.5)
	tp.Add(0.1, 62500) // bin 0, full width: 1 Mbps
	tp.Add(1.1, 31250) // bin 2, cut at 1.25: 31250·8 / 0.25 s = 1 Mbps
	series := tp.SeriesUntil(1.25)
	if len(series) != 3 {
		t.Fatalf("bins = %d, want 3", len(series))
	}
	if !almost(series[0].Mbps, 1.0) {
		t.Fatalf("full bin = %v Mbps, want 1", series[0].Mbps)
	}
	if !almost(series[2].Mbps, 1.0) {
		t.Fatalf("partial bin = %v Mbps, want 1 (normalised by 0.25 s)", series[2].Mbps)
	}
	// An end landing exactly on a bin edge keeps the full-width divisor.
	whole := tp.SeriesUntil(1.5)
	if !almost(whole[2].Mbps, 0.5) {
		t.Fatalf("full-width closing bin = %v Mbps, want 0.5", whole[2].Mbps)
	}
}

func TestThroughputSummaryIncludesSilentPrefix(t *testing.T) {
	// The paper's min throughput is 0 because bins before communication
	// starts are part of the record.
	tp := metrics.NewThroughput(0.5)
	tp.Add(5.0, 62500)
	sm := tp.Summary(10)
	if sm.Min != 0 {
		t.Fatalf("min = %v, want 0 (silent prefix)", sm.Min)
	}
	if sm.N != 20 {
		t.Fatalf("bins = %d, want 20", sm.N)
	}
	if sm.Max <= 0 {
		t.Fatal("max must reflect the active bin")
	}
}

func TestThroughputCI(t *testing.T) {
	tp := metrics.NewThroughput(0.5)
	// Steady 1 Mbps with slight alternation.
	for i := 0; i < 100; i++ {
		b := 62500
		if i%2 == 0 {
			b += 2500
		}
		tp.Add(sim.Time(float64(i))*0.5+0.1, b)
	}
	ci := tp.CI(50, 10, 0.95)
	if ci.N != 10 {
		t.Fatalf("CI batches = %d", ci.N)
	}
	if ci.Mean < 1.0 || ci.Mean > 1.1 {
		t.Fatalf("CI mean = %v", ci.Mean)
	}
	if ci.RelPrecision() > 0.10 {
		t.Fatalf("relative precision = %v, want tight for a steady series", ci.RelPrecision())
	}
}

func TestThroughputZeroBinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero bin did not panic")
		}
	}()
	metrics.NewThroughput(0)
}

// Regression: impossible samples are rejected with an error and counted,
// not panicked over — a corrupted timestamp mid-sweep must not kill the
// whole run, and the checker surfaces the rejection instead.
func TestThroughputRejectsBadSamples(t *testing.T) {
	tp := metrics.NewThroughput(1)
	if err := tp.Add(-1, 10); err == nil {
		t.Fatal("negative time accepted")
	}
	if err := tp.Add(1, -10); err == nil {
		t.Fatal("negative byte count accepted")
	}
	if got := tp.Rejected(); got != 2 {
		t.Fatalf("Rejected() = %d, want 2", got)
	}
	if tp.TotalBytes() != 0 {
		t.Fatalf("rejected samples leaked %d bytes into the bins", tp.TotalBytes())
	}
	if err := tp.Add(0.5, 10); err != nil {
		t.Fatalf("valid sample rejected: %v", err)
	}
	if got := tp.Rejected(); got != 2 {
		t.Fatalf("Rejected() after a valid sample = %d, want 2", got)
	}
}

// Property: total bytes are conserved by binning, and every bin rate is
// non-negative and bounded by bytes·8/bin.
func TestThroughputConservationProperty(t *testing.T) {
	f := func(arrivals []uint16) bool {
		tp := metrics.NewThroughput(0.5)
		total := 0
		for i, a := range arrivals {
			at := sim.Time(float64(i%200)) * 0.05
			tp.Add(at, int(a))
			total += int(a)
		}
		if tp.TotalBytes() != total {
			return false
		}
		for _, p := range tp.SeriesUntil(10) {
			if p.Mbps < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: delays recorded are returned verbatim and non-negative input
// keeps a non-negative summary.
func TestDelaySeriesProperty(t *testing.T) {
	f := func(ds []uint16) bool {
		var s metrics.DelaySeries
		for i, d := range ds {
			s.Add(i+1, sim.Time(d)/1000)
		}
		if s.Len() != len(ds) {
			return false
		}
		sm := s.Summary()
		return len(ds) == 0 || (sm.Min >= 0 && sm.Max >= sm.Min && sm.Mean >= sm.Min-1e-12 && sm.Mean <= sm.Max+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func BenchmarkThroughputAdd(b *testing.B) {
	tp := metrics.NewThroughput(0.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tp.Add(sim.Time(i%400)*0.5, 1000)
	}
}

func BenchmarkDelaySeriesSteadyState(b *testing.B) {
	var s metrics.DelaySeries
	for i := 1; i <= 2000; i++ {
		s.Add(i, sim.Time(i%7)+1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SteadyState()
	}
}

// referenceTruncationIndex is the plain MSER-5 scan TruncationIndex must
// reproduce exactly: every cut in the first half scored with
// stats.Summarize (O(n²) overall), a later cut winning only by more than
// 1e-12.
func referenceTruncationIndex(s *metrics.DelaySeries) int {
	const batch = 5
	xs := s.Delays()
	n := len(xs) / batch
	if n < 4 {
		return 0
	}
	means := make([]float64, n)
	for b := 0; b < n; b++ {
		sum := 0.0
		for i := b * batch; i < (b+1)*batch; i++ {
			sum += xs[i]
		}
		means[b] = sum / batch
	}
	bestD, bestSE := 0, math.Inf(1)
	for d := 0; d <= n/2; d++ {
		sm := stats.Summarize(means[d:])
		se := sm.Std / math.Sqrt(float64(sm.N))
		if se < bestSE-1e-12 {
			bestSE, bestD = se, d
		}
	}
	return bestD * batch
}

func seriesOf(xs []float64) *metrics.DelaySeries {
	var s metrics.DelaySeries
	for i, x := range xs {
		s.Add(i+1, sim.Time(x))
	}
	return &s
}

// truncationMatches reports a mismatch between TruncationIndex and the
// reference scan on s.
func truncationMatches(t *testing.T, name string, s *metrics.DelaySeries) bool {
	t.Helper()
	got, want := s.TruncationIndex(), referenceTruncationIndex(s)
	if got != want {
		t.Errorf("%s (%d points): TruncationIndex = %d, reference = %d", name, s.Len(), got, want)
	}
	return got == want
}

// adversarialSeries builds the fixed families most likely to separate a
// fast MSER-5 from the exact scan: exact ties, ties blurred below and at
// the 1e-12 margin, periodic slot-like delays, warm-up ramps and late
// spikes.
func adversarialSeries() map[string][]float64 {
	rng := rand.New(rand.NewSource(7))
	out := map[string][]float64{}
	noisy := func(n int, base, amp float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = base + amp*(rng.Float64()-0.5)
		}
		return xs
	}
	for _, n := range []int{20, 21, 99, 500, 2001, 6000} {
		// Large levels widen the bounds (Summarize's own mean rounding
		// grows with the level), so their tie-scale jitter leaves
		// comparisons to the exact scores.
		for _, base := range []float64{0, 1e-3, 1, 2.6, 1280e-3, 1e4, 1e6} {
			out[fmt.Sprintf("flat/%d/%g", n, base)] = noisy(n, base, 0)
			for _, amp := range []float64{1e-13, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7} {
				out[fmt.Sprintf("jitter/%d/%g/%g", n, base, amp)] = noisy(n, base, amp)
			}
		}
		for _, period := range []int{3, 5, 8, 50} {
			xs := make([]float64, n)
			for i := range xs {
				// A TDMA-like sawtooth: the wait for the next owned slot.
				xs[i] = 0.01 + 0.02*float64(i%period)
			}
			out[fmt.Sprintf("periodic/%d/%d", n, period)] = xs
		}
		for _, ramp := range []int{n / 10, n / 3, n / 2, n} {
			for _, amp := range []float64{0, 1e-12, 1e-4} {
				xs := noisy(n, 0.5, amp)
				for i := 0; i < ramp; i++ {
					xs[i] += 2 * float64(ramp-i) / float64(ramp)
				}
				out[fmt.Sprintf("ramp/%d/%d/%g", n, ramp, amp)] = xs
			}
		}
		for _, spike := range []float64{1e-9, 1, 1e6} {
			xs := noisy(n, 1, 1e-6)
			xs[n-1] += spike
			xs[n-3] += spike / 2
			out[fmt.Sprintf("spike/%d/%g", n, spike)] = xs
		}
	}
	// One outlier batch just after cut 0 on a large level: the outlier's
	// cut is a near-tie left to the exact scores, the next cut drops
	// clearly, and the flat tail after it is a near-tie again — scored
	// against the exact SE of the new best, not the stale one.
	for _, level := range []float64{1e4, 1e6, 1e8} {
		for _, outlier := range []float64{1e-5, 1e-4, 1e-3, 1e-2} {
			for _, n := range []int{100, 500, 2000} {
				xs := noisy(n, level, 0)
				for i := 5; i < 10; i++ {
					xs[i] += outlier
				}
				out[fmt.Sprintf("outlier/%d/%g/%g", n, level, outlier)] = xs
			}
		}
	}
	for n := 0; n <= 25; n++ {
		out[fmt.Sprintf("short/%d", n)] = noisy(n, 1, 1)
		out[fmt.Sprintf("short-flat/%d", n)] = noisy(n, 1, 0)
	}
	for _, at := range []int{0, 50, 99} {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			xs := noisy(100, 1, 1)
			xs[at] = bad
			out[fmt.Sprintf("nonfinite/%d/%g", at, bad)] = xs
		}
	}
	out["huge"] = noisy(100, 1e200, 1e199)
	out["tiny"] = noisy(100, 1e-300, 1e-301)
	return out
}

// TestTruncationIndexMatchesReference holds the O(n) MSER-5 to the exact
// scan's cut on random series, on the adversarial families, and on every
// flow of trials 1–3 at three seeds.
func TestTruncationIndexMatchesReference(t *testing.T) {
	t.Run("quick", func(t *testing.T) {
		millis := func(ds []uint16, shift uint8) bool {
			xs := make([]float64, len(ds))
			for i, d := range ds {
				xs[i] = float64(d) / 1000 * math.Ldexp(1, int(shift%16)-8)
			}
			return truncationMatches(t, "quick/millis", seriesOf(xs))
		}
		if err := quick.Check(millis, &quick.Config{MaxCount: 500}); err != nil {
			t.Error(err)
		}
		raw := func(xs []float64) bool { return truncationMatches(t, "quick/raw", seriesOf(xs)) }
		if err := quick.Check(raw, &quick.Config{MaxCount: 200}); err != nil {
			t.Error(err)
		}
	})
	t.Run("random", func(t *testing.T) {
		// Longer series than quick generates: a random level, noise
		// amplitude (down to the tie scale) and warm-up length each.
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 300; i++ {
			n := 20 + rng.Intn(3000)
			level := math.Ldexp(rng.Float64(), rng.Intn(12)-10)
			amp := level * math.Pow(10, -float64(rng.Intn(14)))
			ramp := rng.Intn(n/2 + 1)
			xs := make([]float64, n)
			for j := range xs {
				xs[j] = level + amp*rng.NormFloat64()
				if j < ramp {
					xs[j] += level * float64(ramp-j) / float64(ramp)
				}
			}
			truncationMatches(t, fmt.Sprintf("random/%d", i), seriesOf(xs))
		}
	})
	t.Run("adversarial", func(t *testing.T) {
		for name, xs := range adversarialSeries() {
			truncationMatches(t, name, seriesOf(xs))
		}
	})
	t.Run("trials", func(t *testing.T) {
		for _, mk := range []func() scenario.TrialConfig{scenario.Trial1, scenario.Trial2, scenario.Trial3} {
			for _, seed := range []uint64{1, 7, 42} {
				cfg := mk()
				cfg.Seed = seed
				if cfg.MAC == scenario.MAC80211 {
					cfg.Duration = 60
				}
				r := scenario.RunTrial(cfg)
				for pi, p := range []*scenario.PlatoonResult{r.Platoon1, r.Platoon2} {
					for fi, f := range p.Comms.Flows() {
						truncationMatches(t, fmt.Sprintf("%s/seed%d/platoon%d/flow%d", cfg.Name, seed, pi+1, fi), f.Delays)
					}
				}
			}
		}
	})
}

// FuzzTruncationIndex holds TruncationIndex to the exact scan on arbitrary
// series. The first byte picks how the rest decodes: raw float64 bit
// patterns (NaN, ±Inf, huge and subnormal values included), millisecond
// delays, or one level plus jitter at the 1e-12 tie scale.
func FuzzTruncationIndex(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 240, 63})
	f.Add([]byte("\x01 a warm-up ramp, then a long and flat tail.............."))
	f.Add([]byte("\x02 near-tie jitter around a flat level ...................."))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mode, body := data[0]%3, data[1:]
		var xs []float64
		switch mode {
		case 0:
			for ; len(body) >= 8; body = body[8:] {
				xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(body)))
			}
		case 1:
			for ; len(body) >= 2; body = body[2:] {
				xs = append(xs, float64(binary.LittleEndian.Uint16(body))/1000)
			}
		case 2:
			for _, b := range body {
				xs = append(xs, 0.25+float64(int(b)-128)*1e-13)
			}
		}
		// The oracle is quadratic: cap the series so each input stays fast.
		truncationMatches(t, "fuzz", seriesOf(xs[:min(len(xs), 1500)]))
	})
}

// BenchmarkTruncationIndexTrial3Size times MSER-5 on a series the size of
// a 200 s trial-3 flow (31 500 packets): a decaying warm-up over the first
// few hundred packets, then millisecond-scale noise. The O(n²) scan takes
// ~100x longer here.
func BenchmarkTruncationIndexTrial3Size(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	var s metrics.DelaySeries
	for i := 0; i < 31500; i++ {
		d := 0.002 + 0.001*rng.ExpFloat64()
		if i < 600 {
			d += 0.05 * float64(600-i) / 600
		}
		s.Add(i+1, sim.Time(d))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cutSink = s.TruncationIndex()
	}
}

var cutSink int
