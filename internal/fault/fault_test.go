package fault

import (
	"math"
	"strings"
	"testing"

	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
)

// frame builds a data frame from src for the injector to judge.
func frame(src packet.NodeID, size int) *packet.Packet {
	return &packet.Packet{
		Type: packet.TypeTCP,
		Size: size,
		Mac:  packet.MacHdr{Src: src, Dst: 1, Subtype: packet.MacData},
	}
}

// lossRate feeds n frames over one link and returns the observed drop rate.
func lossRate(in *Injector, n int) float64 {
	dropped := 0
	p := frame(0, 1000)
	for i := 0; i < n; i++ {
		if in.DropRx(1, p) {
			dropped++
		}
	}
	return float64(dropped) / float64(n)
}

func TestBernoulliLossRate(t *testing.T) {
	const want = 0.1
	in := NewInjector(Plan{Bernoulli: Bernoulli{LossProb: want}}, sim.NewRNG(7))
	got := lossRate(in, 200_000)
	// Binomial std dev at n=200k, p=0.1 is ~0.00067; 5 sigma ≈ 0.0034.
	if math.Abs(got-want) > 0.005 {
		t.Fatalf("Bernoulli loss rate = %.4f, want %.2f ± 0.005", got, want)
	}
	if s := in.Stats(); s.DroppedBernoulli == 0 || s.DroppedBurst != 0 {
		t.Fatalf("stats misattributed: %+v", s)
	}
}

func TestBitErrorRateComposition(t *testing.T) {
	b := Bernoulli{BitErrorRate: 1e-5}
	// 1000-byte frame: 1-(1-1e-5)^8000 ≈ 0.0769.
	want := 1 - math.Pow(1-1e-5, 8000)
	if got := b.FrameLossProb(1000); math.Abs(got-want) > 1e-12 {
		t.Fatalf("FrameLossProb(1000) = %v, want %v", got, want)
	}
	// Composes with per-frame loss.
	b.LossProb = 0.5
	want = 1 - 0.5*math.Pow(1-1e-5, 8000)
	if got := b.FrameLossProb(1000); math.Abs(got-want) > 1e-12 {
		t.Fatalf("combined FrameLossProb = %v, want %v", got, want)
	}
	if got := (Bernoulli{}).FrameLossProb(1000); got != 0 {
		t.Fatalf("zero model loss prob = %v, want 0", got)
	}
}

func TestGilbertElliottStationaryLossRate(t *testing.T) {
	for _, p := range []float64{0.05, 0.2} {
		g := Burst(p, 4)
		if got := g.StationaryLossProb(); math.Abs(got-p) > 1e-12 {
			t.Fatalf("Burst(%v, 4) stationary loss = %v, want %v", p, got, p)
		}
		in := NewInjector(Plan{Burst: g}, sim.NewRNG(11))
		got := lossRate(in, 300_000)
		// Burst correlation inflates the variance of the empirical rate vs
		// an independent chain by roughly 2·L; allow a generous band.
		if math.Abs(got-p) > 0.01 {
			t.Fatalf("GE empirical loss rate = %.4f, want %.2f ± 0.01", got, p)
		}
		s := in.Stats()
		if s.DroppedBurst == 0 || s.BurstTransitions == 0 {
			t.Fatalf("GE stats empty: %+v", s)
		}
		// Mean burst length ≈ dropped frames per bad visit; each visit is
		// two transitions, so dropped/(transitions/2) ≈ 4.
		meanBurst := float64(s.DroppedBurst) / (float64(s.BurstTransitions) / 2)
		if meanBurst < 3 || meanBurst > 5 {
			t.Fatalf("mean burst length = %.2f, want ≈ 4", meanBurst)
		}
	}
}

func TestBurstParameterisationEdges(t *testing.T) {
	if g := Burst(0, 4); g.Enabled() {
		t.Fatal("Burst(0, L) must be disabled")
	}
	g := Burst(1, 4)
	if g.StationaryLossProb() != 1 {
		t.Fatalf("Burst(1, L) stationary loss = %v, want 1", g.StationaryLossProb())
	}
	// Burst repairs nothing: a mean burst length that is below one frame
	// or not finite builds a chain that Plan.Validate names.
	for _, l := range []float64{0.1, 0, -2, math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := Plan{Burst: Burst(0.3, l)}.Validate()
		if err == nil || !strings.Contains(err.Error(), "mean burst length") {
			t.Errorf("Burst(0.3, %v): Validate = %v, want a mean burst length error", l, err)
		}
	}
	// Total loss is the absorbing all-bad chain whatever the length.
	if err := (Plan{Burst: Burst(1, 0.5)}).Validate(); err != nil {
		t.Errorf("Burst(1, 0.5): %v", err)
	}
	// A loss L needs a mean burst of at least L/(1−L) frames: 0.5 at one
	// frame is the edge, and 0.9 at one frame is out of reach rather than
	// run at some other loss.
	if g := Burst(0.5, 1); g.PGoodBad != 1 || g.StationaryLossProb() != 0.5 || (Plan{Burst: g}).Validate() != nil {
		t.Errorf("Burst(0.5, 1) = %+v, want PGoodBad 1 at stationary loss 0.5", g)
	}
	err := Plan{Burst: Burst(0.9, 1)}.Validate()
	if err == nil || !strings.Contains(err.Error(), "PGoodBad") {
		t.Errorf("Burst(0.9, 1): Validate = %v, want a PGoodBad range error", err)
	}
}

// TestBurstAtTheReachableEdge pins the edge L/(1−L) itself: a burst length
// of exactly that many frames runs at PGoodBad 1, even where the
// arithmetic rounds a few ulps above 1, and stays at loss L.
func TestBurstAtTheReachableEdge(t *testing.T) {
	for _, c := range []struct{ loss, burstLen float64 }{
		{0.8, 4},       // 0.2 divides as 0.19999999999999996: PGoodBad rounds above 1
		{0.9, 9},       // likewise
		{0.75, 3},      // exact
		{0.6, 1.5},     // rounds below 1, already accepted
		{0.5, 1},       // the one-frame edge
		{0.3, 3.0 / 7}, // below one frame: the edge holds, Validate rejects the length
	} {
		g := Burst(c.loss, c.burstLen)
		if g.PGoodBad > 1 {
			t.Errorf("Burst(%v, %v).PGoodBad = %v, want at most 1", c.loss, c.burstLen, g.PGoodBad)
		}
		if got := g.StationaryLossProb(); math.Abs(got-c.loss) > 1e-12 {
			t.Errorf("Burst(%v, %v) stationary loss = %v, want %v", c.loss, c.burstLen, got, c.loss)
		}
		err := Plan{Burst: g}.Validate()
		if wantErr := c.burstLen < 1; (err != nil) != wantErr {
			t.Errorf("Burst(%v, %v): Validate = %v, want error %v", c.loss, c.burstLen, err, wantErr)
		}
	}
	// Past the edge is still out of reach, not rounded onto it.
	for _, c := range []struct{ loss, burstLen float64 }{{0.9, 1}, {0.8, 3.99}, {0.9, 8.999}} {
		err := Plan{Burst: Burst(c.loss, c.burstLen)}.Validate()
		if err == nil || !strings.Contains(err.Error(), "PGoodBad") {
			t.Errorf("Burst(%v, %v): Validate = %v, want a PGoodBad range error", c.loss, c.burstLen, err)
		}
	}
}

func TestPerLinkStreamsIndependentOfDiscoveryOrder(t *testing.T) {
	plan := Plan{Bernoulli: Bernoulli{LossProb: 0.3}, Burst: Burst(0.1, 3)}
	links := []packet.NodeID{2, 3, 4}

	// First injector discovers links in order 2,3,4; second in 4,3,2. The
	// per-link decision sequences must match exactly.
	decisions := func(order []int) map[packet.NodeID][]bool {
		in := NewInjector(plan, sim.NewRNG(99))
		out := make(map[packet.NodeID][]bool)
		for round := 0; round < 50; round++ {
			for _, i := range order {
				src := links[i]
				out[src] = append(out[src], in.DropRx(1, frame(src, 500)))
			}
		}
		return out
	}
	a := decisions([]int{0, 1, 2})
	b := decisions([]int{2, 1, 0})
	for _, src := range links {
		if len(a[src]) != len(b[src]) {
			t.Fatalf("link %v: decision counts differ", src)
		}
		for i := range a[src] {
			if a[src][i] != b[src][i] {
				t.Fatalf("link %v decision %d differs with discovery order", src, i)
			}
		}
	}
	// And distinct links must not share a stream.
	same := true
	for i := range a[2] {
		if a[2][i] != a[3][i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("links 2 and 3 produced identical decision streams")
	}
}

func TestPlanValidate(t *testing.T) {
	inf := sim.Time(math.Inf(1))
	bad := []Plan{
		{Bernoulli: Bernoulli{LossProb: -0.1}},
		{Bernoulli: Bernoulli{BitErrorRate: 1.5}},
		{Bernoulli: Bernoulli{LossProb: math.NaN()}},
		{Burst: GilbertElliott{PGoodBad: 2}},
		{Burst: Burst(-0.1, 4)},
		{Burst: Burst(1.5, 4)},
		{ShadowSigmaDB: -1},
		{ShadowSigmaDB: math.Inf(1)},
		{ShadowSigmaDB: math.NaN()},
		{Outages: []Outage{{Node: 0, Start: sim.Time(math.NaN()), Duration: 1}}},
		{Outages: []Outage{{Node: 0, Start: 1, Duration: sim.Time(math.NaN())}}},
		{Outages: []Outage{{Node: 0, Start: inf, Duration: 1}}},
		{Outages: []Outage{{Node: 0, Start: 1, Duration: inf}}},
		{Outages: []Outage{{Node: -1, Start: 1, Duration: 1}}},
		{Outages: []Outage{{Node: 0, Start: -5, Duration: 8}}},
		{Outages: []Outage{{Node: 0, Start: 5, Duration: 0}}},
		{Outages: []Outage{{Node: 0, Start: 5, Duration: -1}}},
		// One node's windows may neither overlap nor touch, in any order.
		{Outages: []Outage{{Node: 1, Start: 10, Duration: 5}, {Node: 1, Start: 15, Duration: 5}}},
		{Outages: []Outage{{Node: 1, Start: 15, Duration: 5}, {Node: 1, Start: 10, Duration: 5}}},
		{Outages: []Outage{{Node: 1, Start: 10, Duration: 10}, {Node: 1, Start: 12, Duration: 3}}},
		{Outages: []Outage{{Node: 1, Start: 12, Duration: 3}, {Node: 1, Start: 10, Duration: 10}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d: Validate accepted %+v", i, p)
		}
	}
	for _, p := range []Plan{
		{},
		{Burst: Burst(0.1, 1)},
		{Burst: Burst(1, 4)},
		// Disjoint windows on one node, and the same window on two nodes.
		{Outages: []Outage{{Node: 1, Start: 10, Duration: 5}, {Node: 1, Start: 15.5, Duration: 5}}},
		{Outages: []Outage{{Node: 1, Start: 10, Duration: 5}, {Node: 2, Start: 10, Duration: 5}}},
	} {
		if err := p.Validate(); err != nil {
			t.Errorf("valid plan %+v rejected: %v", p, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewInjector accepted an invalid plan")
		}
	}()
	NewInjector(bad[0], sim.NewRNG(1))
}

func TestPlanEnabled(t *testing.T) {
	if (Plan{}).Enabled() {
		t.Fatal("zero plan reports enabled")
	}
	if (Plan{Outages: []Outage{{Node: 1, Start: 5, Duration: 0}}}).Enabled() {
		t.Fatal("zero-length outage alone must not enable the plan")
	}
	for _, p := range []Plan{
		{Bernoulli: Bernoulli{LossProb: 0.1}},
		{Bernoulli: Bernoulli{BitErrorRate: 1e-6}},
		{Burst: Burst(0.1, 4)},
		{ShadowSigmaDB: 4},
		{Outages: []Outage{{Node: 1, Start: 5, Duration: 1}}},
	} {
		if !p.Enabled() {
			t.Errorf("plan %+v reports disabled", p)
		}
	}
}

func TestOutageSeconds(t *testing.T) {
	p := Plan{Outages: []Outage{
		{Node: 0, Start: 10, Duration: 5},   // fully inside
		{Node: 1, Start: 55, Duration: 20},  // spans the run end
		{Node: 2, Start: -3, Duration: 5},   // clamped start
		{Node: 3, Start: 30, Duration: 0},   // zero-length: no-op
		{Node: 4, Start: 100, Duration: 10}, // entirely after the end
	}}
	got := p.OutageSeconds(60)
	want := 5.0 + 5.0 + 2.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("OutageSeconds(60) = %v, want %v", got, want)
	}
}

func TestDroppedDataCountsOnlyDataFrames(t *testing.T) {
	in := NewInjector(Plan{Bernoulli: Bernoulli{LossProb: 1}}, sim.NewRNG(5))
	ack := &packet.Packet{Type: packet.TypeMACAck, Size: 40,
		Mac: packet.MacHdr{Src: 0, Dst: 1, Subtype: packet.MacAck}}
	if !in.DropRx(1, ack) || !in.DropRx(1, frame(0, 1000)) {
		t.Fatal("LossProb=1 must drop everything")
	}
	if s := in.Stats(); s.DroppedData != 1 {
		t.Fatalf("DroppedData = %d, want 1 (MAC ack must not count)", s.DroppedData)
	}
}
