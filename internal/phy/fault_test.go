package phy

import (
	"math"
	"testing"

	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
)

// dropAll is an Impairment that destroys every frame and records what it saw.
type dropAll struct {
	seen []*packet.Packet
	drop bool
}

func (d *dropAll) DropRx(dst packet.NodeID, p *packet.Packet) bool {
	d.seen = append(d.seen, p)
	return d.drop
}

func TestImpairmentDropsIntactFrame(t *testing.T) {
	s, radios, macs := rig(t, 0, 100)
	imp := &dropAll{drop: true}
	radios[1].SetImpairment(imp)
	var f packet.Factory
	p := mkPkt(&f, 1000)
	p.Mac.Src = 0
	radios[0].Transmit(p, 4*sim.Millisecond)
	s.Run()
	if len(macs[1].frames) != 1 || !macs[1].corrupted[0] {
		t.Fatal("impaired frame must reach the MAC marked corrupted")
	}
	if got := radios[1].Stats().RxImpaired; got != 1 {
		t.Fatalf("RxImpaired = %d, want 1", got)
	}
	if got := radios[1].Stats().RxOK; got != 0 {
		t.Fatalf("RxOK = %d, want 0", got)
	}
	if len(imp.seen) != 1 || imp.seen[0].Mac.Src != 0 {
		t.Fatalf("impairment saw %d frames (src %v), want the one frame from node 0", len(imp.seen), imp.seen[0].Mac.Src)
	}
}

func TestImpairmentNotConsultedOnCollision(t *testing.T) {
	// Equal-power overlap corrupts the locked frame before the impairment
	// hook; the model's randomness must not be consumed for it.
	s, radios, _ := rig(t, -100, 0, 100)
	imp := &dropAll{}
	radios[1].SetImpairment(imp)
	var f packet.Factory
	radios[0].Transmit(mkPkt(&f, 1000), 4*sim.Millisecond)
	radios[2].Transmit(mkPkt(&f, 1000), 4*sim.Millisecond)
	s.Run()
	if len(imp.seen) != 0 {
		t.Fatalf("impairment consulted %d times for collided frames, want 0", len(imp.seen))
	}
	if got := radios[1].Stats().RxCollided; got != 1 {
		t.Fatalf("RxCollided = %d, want 1", got)
	}
}

func TestImpairmentPassthrough(t *testing.T) {
	s, radios, macs := rig(t, 0, 100)
	radios[1].SetImpairment(&dropAll{drop: false})
	var f packet.Factory
	radios[0].Transmit(mkPkt(&f, 1000), 4*sim.Millisecond)
	s.Run()
	if len(macs[1].frames) != 1 || macs[1].corrupted[0] {
		t.Fatal("non-dropping impairment must not corrupt the frame")
	}
	if got := radios[1].Stats().RxOK; got != 1 {
		t.Fatalf("RxOK = %d, want 1", got)
	}
}

func TestOutageDropsArrivalsCounted(t *testing.T) {
	s, radios, macs := rig(t, 0, 100)
	radios[1].SetDown(true)
	var f packet.Factory
	radios[0].Transmit(mkPkt(&f, 1000), 4*sim.Millisecond)
	s.Run()
	if len(macs[1].frames) != 0 || macs[1].busy != 0 {
		t.Fatal("a down radio must neither deliver nor carrier-sense")
	}
	if got := radios[1].Stats().RxDroppedOutage; got != 1 {
		t.Fatalf("RxDroppedOutage = %d, want 1 (no silent loss)", got)
	}
	// Recovery: the next frame is heard normally.
	radios[1].SetDown(false)
	radios[0].Transmit(mkPkt(&f, 1000), 4*sim.Millisecond)
	s.Run()
	if len(macs[1].frames) != 1 || macs[1].corrupted[0] {
		t.Fatal("recovered radio must receive again")
	}
}

func TestOutageAbortsInProgressReception(t *testing.T) {
	s, radios, macs := rig(t, 0, 100)
	var f packet.Factory
	radios[0].Transmit(mkPkt(&f, 1000), 4*sim.Millisecond)
	s.Schedule(sim.Millisecond, func() { radios[1].SetDown(true) })
	s.Run()
	if len(macs[1].frames) != 0 {
		t.Fatal("reception in progress when the outage starts must be destroyed")
	}
	if got := radios[1].Stats().RxDroppedOutage; got != 1 {
		t.Fatalf("RxDroppedOutage = %d, want 1 for the aborted reception", got)
	}
	if radios[1].State() == Receiving {
		t.Fatal("radio stuck in Receiving after outage")
	}
	// The recycled reception struct must not leak into the next lock-on.
	radios[1].SetDown(false)
	radios[0].Transmit(mkPkt(&f, 1000), 4*sim.Millisecond)
	s.Run()
	if len(macs[1].frames) != 1 || macs[1].corrupted[0] {
		t.Fatal("post-outage delivery broken")
	}
}

func TestOutageSuppressesTransmit(t *testing.T) {
	s, radios, macs := rig(t, 0, 100)
	radios[0].SetDown(true)
	var f packet.Factory
	radios[0].Transmit(mkPkt(&f, 1000), 4*sim.Millisecond)
	if radios[0].State() != Transmitting {
		t.Fatal("suppressed transmit must still walk the MAC's state machine")
	}
	s.Run()
	if radios[0].State() != Idle {
		t.Fatal("radio stuck after suppressed transmit")
	}
	if len(macs[1].frames) != 0 || macs[1].busy != 0 {
		t.Fatal("a down radio must radiate no energy")
	}
	st := radios[0].Stats()
	if st.TxSuppressedOutage != 1 {
		t.Fatalf("TxSuppressedOutage = %d, want 1", st.TxSuppressedOutage)
	}
	if st.TxFrames != 0 {
		t.Fatalf("TxFrames = %d, want 0 (frame never aired)", st.TxFrames)
	}
}

func TestSetDownIdempotent(t *testing.T) {
	s, radios, _ := rig(t, 0, 100)
	radios[1].SetDown(true)
	radios[1].SetDown(true)
	radios[1].SetDown(false)
	radios[1].SetDown(false)
	if radios[1].Down() {
		t.Fatal("radio should be up")
	}
	_ = s
}

func TestShadowingMoments(t *testing.T) {
	m := NewShadowing(DefaultPropagation(), 6, sim.NewRNG(42))
	const d = 120
	base := DefaultPropagation().RxPower(0.1, d)

	const n = 50_000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		p := m.RxPower(0.1, d)
		db := 10 * math.Log10(p/base)
		sum += db
		sumSq += db * db
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	// Zero-mean in the dB domain, stddev as configured (5-sigma bands for
	// the sample mean and a 2% band for the sample stddev).
	if math.Abs(mean) > 5*6/math.Sqrt(n) {
		t.Fatalf("shadowing dB mean = %v, want ≈ 0", mean)
	}
	if math.Abs(std-6) > 0.12 {
		t.Fatalf("shadowing dB stddev = %v, want ≈ 6", std)
	}
	if m.Samples() != n {
		t.Fatalf("Samples() = %d, want %d", m.Samples(), n)
	}
}

func TestShadowingRangeIsMedian(t *testing.T) {
	base := DefaultPropagation()
	m := NewShadowing(base, 8, sim.NewRNG(1))
	p := DefaultRadioParams()
	if got, want := m.Range(p.TxPowerW, p.RxThreshW), base.Range(p.TxPowerW, p.RxThreshW); got != want {
		t.Fatalf("shadowed Range = %v, want base %v", got, want)
	}
}

func TestShadowingZeroSigmaAndZeroPower(t *testing.T) {
	m := NewShadowing(DefaultPropagation(), 0, sim.NewRNG(1))
	const d = 100
	if got, want := m.RxPower(0.1, d), DefaultPropagation().RxPower(0.1, d); got != want {
		t.Fatal("sigma=0 must be a transparent passthrough")
	}
	if m.Samples() != 0 {
		t.Fatal("sigma=0 must consume no randomness")
	}
	if got := m.RxPower(0, d); got != 0 {
		t.Fatalf("zero tx power shadowed to %v", got)
	}
}

func TestShadowingPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"nil base":  func() { NewShadowing(nil, 4, sim.NewRNG(1)) },
		"nil rng":   func() { NewShadowing(DefaultPropagation(), 4, nil) },
		"neg sigma": func() { NewShadowing(DefaultPropagation(), -1, sim.NewRNG(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
