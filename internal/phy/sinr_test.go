package phy

import (
	"testing"

	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
)

// sinrRig builds radios at the given x positions with SINR mode on.
func sinrRig(t *testing.T, xs ...float64) (*sim.Scheduler, []*Radio, []*recorder) {
	t.Helper()
	s := sim.New()
	ch := NewChannel(s, DefaultPropagation(), &packet.Factory{})
	params := DefaultRadioParams()
	params.SINRMode = true
	radios := make([]*Radio, len(xs))
	macs := make([]*recorder, len(xs))
	for i, x := range xs {
		radios[i] = NewRadio(packet.NodeID(i), s, fixedPos(x, 0), params)
		macs[i] = &recorder{}
		radios[i].SetMAC(macs[i])
		ch.Attach(radios[i])
	}
	return s, radios, macs
}

func TestSINRCleanDelivery(t *testing.T) {
	s, radios, macs := sinrRig(t, 0, 100)
	var f packet.Factory
	radios[0].Transmit(mkPkt(&f, 1000), 4*sim.Millisecond)
	s.Run()
	if len(macs[1].frames) != 1 || macs[1].corrupted[0] {
		t.Fatal("clean SINR delivery failed")
	}
}

func TestSINRSingleStrongInterfererStillCaptures(t *testing.T) {
	// Desired at 50 m, one interferer at 300 m: signal/interference far
	// above 10 — survives in both models.
	s, radios, macs := sinrRig(t, 0, 50, 300)
	var f packet.Factory
	radios[0].Transmit(mkPkt(&f, 1000), 4*sim.Millisecond)
	s.Schedule(sim.Millisecond, func() {
		radios[2].Transmit(mkPkt(&f, 1000), 4*sim.Millisecond)
	})
	s.Run()
	if len(macs[1].frames) != 1 || macs[1].corrupted[0] {
		t.Fatal("strong frame should survive one weak interferer under SINR too")
	}
}

func TestSINRAggregationCatchesWhatCaptureMisses(t *testing.T) {
	// Desired sender at 100 m; three interferers at 290 m each. Pairwise:
	// signal/each = (290/100)^4 ≈ 70 ≥ 10, so the legacy capture model
	// passes the frame. Aggregate: signal/(3×interferer) ≈ 23.6 ≥ 10
	// still passes... so use five interferers? Aggregate 70/5 = 14 —
	// passes. Bring them to 230 m: (230/100)^4 ≈ 28 each; five of them
	// give 28/5 ≈ 5.6 < 10 -> corrupted under SINR, captured pairwise.
	run := func(sinr bool) bool {
		s := sim.New()
		ch := NewChannel(s, DefaultPropagation(), &packet.Factory{})
		params := DefaultRadioParams()
		params.SINRMode = sinr
		mk := func(id packet.NodeID, x, y float64) *Radio {
			r := NewRadio(id, s, fixedPos(x, y), params)
			r.SetMAC(&recorder{})
			ch.Attach(r)
			return r
		}
		rxm := &recorder{}
		rx := mk(0, 0, 0)
		rx.SetMAC(rxm)
		tx := mk(1, 100, 0)
		var jam []*Radio
		for i := 0; i < 5; i++ {
			jam = append(jam, mk(packet.NodeID(10+i), 230, float64(i-2)*20))
		}
		var f packet.Factory
		tx.Transmit(mkPkt(&f, 1000), 4*sim.Millisecond)
		s.Schedule(sim.Millisecond, func() {
			for _, j := range jam {
				j.Transmit(mkPkt(&f, 1000), 2*sim.Millisecond)
			}
		})
		s.Run()
		return len(rxm.frames) == 1 && !rxm.corrupted[0]
	}
	if !run(false) {
		t.Fatal("legacy capture model should pass the frame (each interferer individually weak)")
	}
	if run(true) {
		t.Fatal("SINR model should corrupt the frame (aggregate interference too high)")
	}
}

func TestSINRInterferencePresentAtLockTime(t *testing.T) {
	// An undecodable arrival already on the air when the desired frame
	// begins must count against it.
	s := sim.New()
	ch := NewChannel(s, DefaultPropagation(), &packet.Factory{})
	params := DefaultRadioParams()
	params.SINRMode = true
	rxm := &recorder{}
	rx := NewRadio(0, s, fixedPos(0, 0), params)
	rx.SetMAC(rxm)
	ch.Attach(rx)
	near := NewRadio(1, s, fixedPos(150, 0), params)
	near.SetMAC(&recorder{})
	ch.Attach(near)
	// Interferer at 260 m: decodable threshold is ~250 m, so it arrives
	// as noise — but powerful noise relative to a 150 m signal? Signal
	// (150 m): ratio (260/150)^4 ≈ 9.0 < 10 -> corrupted.
	noise := NewRadio(2, s, fixedPos(260, 0), params)
	noise.SetMAC(&recorder{})
	ch.Attach(noise)
	var f packet.Factory
	noise.Transmit(mkPkt(&f, 1500), 10*sim.Millisecond)
	s.Schedule(2*sim.Millisecond, func() {
		near.Transmit(mkPkt(&f, 500), 3*sim.Millisecond)
	})
	s.Run()
	if len(rxm.frames) != 1 {
		t.Fatalf("frames = %d", len(rxm.frames))
	}
	if !rxm.corrupted[0] {
		t.Fatal("pre-existing noise should have corrupted the marginal signal")
	}
}

func TestSINRInterferenceDecays(t *testing.T) {
	// The same marginal geometry, but the noise ends before the signal
	// starts: delivery must succeed (interference bookkeeping decays).
	s := sim.New()
	ch := NewChannel(s, DefaultPropagation(), &packet.Factory{})
	params := DefaultRadioParams()
	params.SINRMode = true
	rxm := &recorder{}
	rx := NewRadio(0, s, fixedPos(0, 0), params)
	rx.SetMAC(rxm)
	ch.Attach(rx)
	near := NewRadio(1, s, fixedPos(150, 0), params)
	near.SetMAC(&recorder{})
	ch.Attach(near)
	noise := NewRadio(2, s, fixedPos(260, 0), params)
	noise.SetMAC(&recorder{})
	ch.Attach(noise)
	var f packet.Factory
	noise.Transmit(mkPkt(&f, 500), sim.Millisecond)
	s.Schedule(5*sim.Millisecond, func() {
		near.Transmit(mkPkt(&f, 500), 3*sim.Millisecond)
	})
	s.Run()
	if len(rxm.frames) != 1 || rxm.corrupted[0] {
		t.Fatal("interference must decay once its frame ends")
	}
}
