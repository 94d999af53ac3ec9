package phy

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"vanetsim/internal/geom"
	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
)

// recorder is a MAC stub that records deliveries and carrier transitions.
type recorder struct {
	frames    []*packet.Packet
	corrupted []bool
	busy      int
	idle      int
}

func (m *recorder) RecvFromPhy(p *packet.Packet, corrupt bool) {
	m.frames = append(m.frames, p)
	m.corrupted = append(m.corrupted, corrupt)
}
func (m *recorder) ChannelBusy() { m.busy++ }
func (m *recorder) ChannelIdle() { m.idle++ }

func fixedPos(x, y float64) PositionFn {
	return func() geom.Vec2 { return geom.V(x, y) }
}

// rig builds a channel with radios at the given x positions (y=0) and a
// recorder MAC on each.
func rig(t *testing.T, xs ...float64) (*sim.Scheduler, []*Radio, []*recorder) {
	t.Helper()
	s := sim.New()
	ch := NewChannel(s, DefaultPropagation(), &packet.Factory{})
	radios := make([]*Radio, len(xs))
	macs := make([]*recorder, len(xs))
	for i, x := range xs {
		radios[i] = NewRadio(packet.NodeID(i), s, fixedPos(x, 0), DefaultRadioParams())
		macs[i] = &recorder{}
		radios[i].SetMAC(macs[i])
		ch.Attach(radios[i])
	}
	return s, radios, macs
}

func mkPkt(f *packet.Factory, size int) *packet.Packet {
	return f.New(packet.TypeTCP, size, 0)
}

func TestFreeSpaceInverseSquare(t *testing.T) {
	m := DefaultPropagation().FreeSpace
	p50 := m.RxPower(1, geom.V(0, 0), geom.V(50, 0))
	p100 := m.RxPower(1, geom.V(0, 0), geom.V(100, 0))
	if math.Abs(p50/p100-4) > 1e-9 {
		t.Fatalf("free space should fall off as 1/d²: ratio = %v", p50/p100)
	}
	if got := m.RxPower(1, geom.V(0, 0), geom.V(0, 0)); got != 1 {
		t.Fatalf("zero-distance power = %v, want txPower", got)
	}
}

func TestTwoRayInverseFourth(t *testing.T) {
	m := DefaultPropagation()
	dc := m.Crossover()
	if dc < 80 || dc > 95 {
		t.Fatalf("crossover = %v m, want ~86 m for WaveLAN geometry", dc)
	}
	p200 := m.RxPower(1, geom.V(0, 0), geom.V(200, 0))
	p400 := m.RxPower(1, geom.V(0, 0), geom.V(400, 0))
	if math.Abs(p200/p400-16) > 1e-9 {
		t.Fatalf("two-ray should fall off as 1/d⁴ beyond crossover: ratio = %v", p200/p400)
	}
}

func TestTwoRayMatchesFreeSpaceBelowCrossover(t *testing.T) {
	m := DefaultPropagation()
	d := m.Crossover() / 2
	got := m.RxPower(1, geom.V(0, 0), geom.V(d, 0))
	want := m.FreeSpace.RxPower(1, geom.V(0, 0), geom.V(d, 0))
	if got != want {
		t.Fatalf("below crossover, two-ray (%v) must equal free space (%v)", got, want)
	}
}

func TestDefaultRanges(t *testing.T) {
	m := DefaultPropagation()
	p := DefaultRadioParams()
	rx := m.Range(p.TxPowerW, p.RxThreshW)
	if math.Abs(rx-250) > 1 {
		t.Fatalf("receive range = %v m, want ~250 (ns-2 WaveLAN)", rx)
	}
	cs := m.Range(p.TxPowerW, p.CSThreshW)
	if math.Abs(cs-550) > 2 {
		t.Fatalf("carrier-sense range = %v m, want ~550", cs)
	}
}

// Property: received power is non-increasing with distance for both models.
func TestMonotonicAttenuationProperty(t *testing.T) {
	m := DefaultPropagation()
	f := func(d1Raw, d2Raw uint16) bool {
		d1 := float64(d1Raw%2000) + 1
		d2 := d1 + float64(d2Raw%2000)
		p1 := m.RxPower(0.1, geom.V(0, 0), geom.V(d1, 0))
		p2 := m.RxPower(0.1, geom.V(0, 0), geom.V(d2, 0))
		f1 := m.FreeSpace.RxPower(0.1, geom.V(0, 0), geom.V(d1, 0))
		f2 := m.FreeSpace.RxPower(0.1, geom.V(0, 0), geom.V(d2, 0))
		return p2 <= p1+1e-18 && f2 <= f1+1e-18
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeliveryInRange(t *testing.T) {
	s, radios, macs := rig(t, 0, 100)
	var f packet.Factory
	p := mkPkt(&f, 1000)
	radios[0].Transmit(p, 4*sim.Millisecond)
	s.Run()
	if len(macs[1].frames) != 1 {
		t.Fatalf("receiver got %d frames, want 1", len(macs[1].frames))
	}
	if macs[1].corrupted[0] {
		t.Fatal("clean transmission marked corrupted")
	}
	if macs[1].frames[0].UID != p.UID {
		t.Fatal("delivered frame has wrong UID")
	}
	if macs[1].frames[0] == p {
		t.Fatal("receiver must get a clone, not the sender's pointer")
	}
	if got := radios[1].Stats().RxOK; got != 1 {
		t.Fatalf("RxOK = %d", got)
	}
}

func TestDeliveryTiming(t *testing.T) {
	s, radios, _ := rig(t, 0, 150)
	var f packet.Factory
	var deliveredAt sim.Time
	mac := &recorder{}
	radios[1].SetMAC(mac)
	done := false
	duration := 2 * sim.Millisecond
	radios[0].Transmit(mkPkt(&f, 500), duration)
	for !done && s.Step() {
		if len(mac.frames) > 0 {
			deliveredAt = s.Now()
			done = true
		}
	}
	want := duration + sim.Time(150/SpeedOfLight)
	if math.Abs(float64(deliveredAt-want)) > 1e-12 {
		t.Fatalf("delivered at %v, want tx duration + propagation = %v", deliveredAt, want)
	}
}

func TestOutOfRangeNotDelivered(t *testing.T) {
	s, radios, macs := rig(t, 0, 600) // beyond 550 m carrier-sense range
	var f packet.Factory
	radios[0].Transmit(mkPkt(&f, 1000), 4*sim.Millisecond)
	s.Run()
	if len(macs[1].frames) != 0 || macs[1].busy != 0 {
		t.Fatal("600 m receiver should neither decode nor sense the frame")
	}
}

func TestSensedButUndecodable(t *testing.T) {
	// Between 250 m (rx) and 550 m (cs): busy is sensed, nothing delivered.
	s, radios, macs := rig(t, 0, 400)
	var f packet.Factory
	radios[0].Transmit(mkPkt(&f, 1000), 4*sim.Millisecond)
	s.Run()
	if len(macs[1].frames) != 0 {
		t.Fatal("400 m receiver should not decode the frame")
	}
	if macs[1].busy != 1 {
		t.Fatalf("carrier sense transitions = %d, want 1", macs[1].busy)
	}
	if macs[1].idle == 0 {
		t.Fatal("medium should eventually be reported idle")
	}
	if radios[1].Stats().RxBelowThresh != 1 {
		t.Fatal("arrival should be counted as below-threshold")
	}
}

func TestCollisionBothCorrupted(t *testing.T) {
	// Two senders equidistant from the middle receiver: equal powers, no
	// capture, overlapping in time -> the locked frame is corrupted.
	s, radios, macs := rig(t, -100, 0, 100)
	var f packet.Factory
	radios[0].Transmit(mkPkt(&f, 1000), 4*sim.Millisecond)
	radios[2].Transmit(mkPkt(&f, 1000), 4*sim.Millisecond)
	s.Run()
	if len(macs[1].frames) != 1 {
		t.Fatalf("receiver locked onto %d frames, want 1", len(macs[1].frames))
	}
	if !macs[1].corrupted[0] {
		t.Fatal("overlapping equal-power frames must collide")
	}
	if radios[1].Stats().RxCollided != 1 {
		t.Fatal("collision not counted")
	}
}

func TestCaptureStrongerFrameSurvives(t *testing.T) {
	// Sender at 50 m is far stronger (>(10x)) than sender at 300 m; the
	// receiver locks the near frame first and capture suppresses the far
	// one.
	s, radios, macs := rig(t, 0, 50, 300)
	var f packet.Factory
	radios[0].Transmit(mkPkt(&f, 1000), 4*sim.Millisecond)
	s.Schedule(sim.Millisecond, func() {
		radios[2].Transmit(mkPkt(&f, 1000), 4*sim.Millisecond)
	})
	s.Run()
	// macs[1] hears node 0 at 50 m (strong) then node 2 at 250 m (weak).
	if len(macs[1].frames) != 1 {
		t.Fatalf("receiver delivered %d frames, want 1", len(macs[1].frames))
	}
	if macs[1].corrupted[0] {
		t.Fatal("strong frame should survive weak interferer (capture)")
	}
}

func TestHalfDuplexTxBlindsRx(t *testing.T) {
	s, radios, macs := rig(t, 0, 100)
	var f packet.Factory
	// Both transmit simultaneously: neither can receive the other.
	radios[0].Transmit(mkPkt(&f, 1000), 4*sim.Millisecond)
	radios[1].Transmit(mkPkt(&f, 1000), 4*sim.Millisecond)
	s.Run()
	if len(macs[0].frames) != 0 || len(macs[1].frames) != 0 {
		t.Fatal("half-duplex radios received while transmitting")
	}
	if radios[0].Stats().RxWhileTx != 1 || radios[1].Stats().RxWhileTx != 1 {
		t.Fatal("blinded arrivals not counted")
	}
}

// Regression: a double transmit is refused with ErrTxWhileTx and counted,
// not panicked over — one misbehaving MAC must degrade its own node, not
// crash a 1,000-replication sweep.
func TestTransmitWhileTransmittingRefused(t *testing.T) {
	s, radios, _ := rig(t, 0, 100)
	var f packet.Factory
	if err := radios[0].Transmit(mkPkt(&f, 1000), 4*sim.Millisecond); err != nil {
		t.Fatalf("first transmit refused: %v", err)
	}
	err := radios[0].Transmit(mkPkt(&f, 1000), 4*sim.Millisecond)
	if !errors.Is(err, ErrTxWhileTx) {
		t.Fatalf("double transmit error = %v, want ErrTxWhileTx", err)
	}
	if got := radios[0].Stats().TxRefused; got != 1 {
		t.Fatalf("TxRefused = %d, want 1", got)
	}
	if got := radios[0].Stats().TxFrames; got != 1 {
		t.Fatalf("TxFrames = %d, want 1 (refused frame must not count)", got)
	}
	s.Run()
}

// Regression: the overlap-losing arrival in a collision used to vanish
// from the radio's books entirely — neither delivered, captured, nor
// counted — so arrivals could not be reconciled against outcomes. Every
// arrival must land in exactly one outcome counter.
func TestArrivalOutcomeConservation(t *testing.T) {
	s, radios, _ := rig(t, -100, 0, 100)
	var f packet.Factory
	radios[0].Transmit(mkPkt(&f, 1000), 4*sim.Millisecond)
	radios[2].Transmit(mkPkt(&f, 1000), 4*sim.Millisecond)
	s.Run()
	st := radios[1].Stats()
	if st.RxArrivals != 2 {
		t.Fatalf("RxArrivals = %d, want 2", st.RxArrivals)
	}
	if st.RxCollided != 1 || st.RxOverlapLost != 1 {
		t.Fatalf("collision outcomes = %+v, want one collided + one overlap-lost", st)
	}
	sum := st.RxOK + st.RxCollided + st.RxImpaired + st.RxCaptured +
		st.RxOverlapLost + st.RxWhileTx + st.RxBelowThresh +
		st.RxDroppedOutage + st.RxAbortedByTx
	if st.RxArrivals != sum {
		t.Fatalf("arrivals %d != outcome sum %d (%+v)", st.RxArrivals, sum, st)
	}
}

// Regression: a non-positive duration is refused with ErrTxDuration.
func TestTransmitNonPositiveDurationRefused(t *testing.T) {
	_, radios, _ := rig(t, 0, 100)
	var f packet.Factory
	if err := radios[0].Transmit(mkPkt(&f, 1000), 0); !errors.Is(err, ErrTxDuration) {
		t.Fatalf("zero-duration transmit error = %v, want ErrTxDuration", err)
	}
	if got := radios[0].Stats().TxRefused; got != 1 {
		t.Fatalf("TxRefused = %d, want 1", got)
	}
}

func TestTransmitAbortsReception(t *testing.T) {
	s, radios, macs := rig(t, 0, 100)
	var f packet.Factory
	radios[0].Transmit(mkPkt(&f, 1000), 4*sim.Millisecond)
	// Node 1 starts its own transmission mid-reception.
	s.Schedule(sim.Millisecond, func() {
		radios[1].Transmit(mkPkt(&f, 1000), 4*sim.Millisecond)
	})
	s.Run()
	if len(macs[1].frames) != 0 {
		t.Fatal("reception should be destroyed by own transmission")
	}
	if got := radios[1].Stats().RxAbortedByTx; got != 1 {
		t.Fatalf("RxAbortedByTx = %d, want 1", got)
	}
	if got := radios[0].Stats().RxAbortedByTx; got != 0 {
		t.Fatalf("sender RxAbortedByTx = %d, want 0", got)
	}
	// A later clean frame must still be delivered intact: the aborted
	// reception's recycled struct must not leak state into the next lock-on.
	radios[0].Transmit(mkPkt(&f, 1000), 4*sim.Millisecond)
	s.Run()
	if len(macs[1].frames) != 1 || macs[1].corrupted[0] {
		t.Fatalf("post-abort delivery broken: got %d frames", len(macs[1].frames))
	}
	if got := radios[1].Stats().RxOK; got != 1 {
		t.Fatalf("post-abort RxOK = %d, want 1", got)
	}
}

func TestCarrierBusyDuringOwnTx(t *testing.T) {
	s, radios, _ := rig(t, 0, 100)
	var f packet.Factory
	radios[0].Transmit(mkPkt(&f, 1000), 4*sim.Millisecond)
	if !radios[0].CarrierBusy() {
		t.Fatal("radio must sense busy during own transmission")
	}
	s.Run()
	if radios[0].CarrierBusy() {
		t.Fatal("radio still busy after all events drained")
	}
	if radios[0].State() != Idle {
		t.Fatalf("state = %v, want idle", radios[0].State())
	}
}

func TestBusyIdleTransitions(t *testing.T) {
	s, radios, macs := rig(t, 0, 100)
	var f packet.Factory
	radios[0].Transmit(mkPkt(&f, 1000), 4*sim.Millisecond)
	s.Run()
	if macs[1].busy != 1 {
		t.Fatalf("busy transitions = %d, want exactly 1", macs[1].busy)
	}
	if macs[1].idle < 1 {
		t.Fatal("no idle notification after frame ended")
	}
}

func TestStateString(t *testing.T) {
	if Idle.String() != "idle" || Receiving.String() != "rx" || Transmitting.String() != "tx" {
		t.Fatal("state names wrong")
	}
}

func TestNewRadioNilPosPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil position fn did not panic")
		}
	}()
	NewRadio(0, sim.New(), nil, DefaultRadioParams())
}

func TestMovingReceiverAttenuates(t *testing.T) {
	// A receiver that drifts out of range between two transmissions stops
	// hearing the sender: positions must be sampled per transmission.
	s := sim.New()
	ch := NewChannel(s, DefaultPropagation(), &packet.Factory{})
	var f packet.Factory
	tx := NewRadio(0, s, fixedPos(0, 0), DefaultRadioParams())
	txm := &recorder{}
	tx.SetMAC(txm)
	ch.Attach(tx)

	pos := geom.V(100, 0)
	rx := NewRadio(1, s, func() geom.Vec2 { return pos }, DefaultRadioParams())
	rxm := &recorder{}
	rx.SetMAC(rxm)
	ch.Attach(rx)

	tx.Transmit(mkPkt(&f, 500), sim.Millisecond)
	s.Run()
	pos = geom.V(1000, 0) // receiver moved far away
	tx.Transmit(mkPkt(&f, 500), sim.Millisecond)
	s.Run()
	if len(rxm.frames) != 1 {
		t.Fatalf("got %d frames, want only the in-range one", len(rxm.frames))
	}
}

func TestFrequencyChannelsIsolate(t *testing.T) {
	s, radios, macs := rig(t, 0, 100)
	radios[1].SetFreqFn(func() int { return 3 }) // receiver tuned elsewhere
	var f packet.Factory
	radios[0].Transmit(mkPkt(&f, 500), sim.Millisecond)
	s.Run()
	if len(macs[1].frames) != 0 || macs[1].busy != 0 {
		t.Fatal("cross-channel transmission was seen")
	}
	// Retune back: now it is heard.
	radios[1].SetFreqFn(nil)
	radios[0].Transmit(mkPkt(&f, 500), sim.Millisecond)
	s.Run()
	if len(macs[1].frames) != 1 {
		t.Fatal("same-channel transmission lost after retune")
	}
}

func TestFrequencyDefaultChannelZero(t *testing.T) {
	s, radios, _ := rig(t, 0, 100)
	if radios[0].Freq() != 0 {
		t.Fatal("default channel should be 0")
	}
	radios[0].SetFreqFn(func() int { return 7 })
	if radios[0].Freq() != 7 {
		t.Fatal("SetFreqFn not honoured")
	}
	_ = s
}

func BenchmarkChannelBroadcast(b *testing.B) {
	s := sim.New()
	ch := NewChannel(s, DefaultPropagation(), &packet.Factory{})
	for i := 0; i < 12; i++ {
		r := NewRadio(packet.NodeID(i), s, fixedPos(float64(i)*40, 0), DefaultRadioParams())
		r.SetMAC(&recorder{})
		ch.Attach(r)
	}
	tx := ch.Radios()[0]
	var f packet.Factory
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx.Transmit(mkPkt(&f, 1000), sim.Millisecond)
		s.Run()
	}
}
