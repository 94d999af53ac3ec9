package phy

import (
	"fmt"
	"testing"

	"vanetsim/internal/geom"
	"vanetsim/internal/mobility"
	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
)

// staticMotion adapts a fixed point to the index's MotionFn.
func staticMotion(x, y float64) MotionFn {
	return func() Motion { return Motion{Pos: geom.V(x, y)} }
}

// TestCandidatesCoverAllAudibleRadios is the core culling property: every
// radio the power check would accept must appear in the candidate list.
// Placements include uniform pseudo-random scatter, points exactly on grid
// cell boundaries, and points at exactly the carrier-sense range.
func TestCandidatesCoverAllAudibleRadios(t *testing.T) {
	s := sim.New()
	ch := NewChannel(s, DefaultPropagation(), &packet.Factory{})
	ch.EnableCulling()
	params := DefaultRadioParams()
	prop := DefaultPropagation()
	csRange := prop.Range(params.TxPowerW, params.CSThreshW)
	cell := ch.idx.queryRadius()

	rng := sim.NewRNG(42)
	var radios []*Radio
	addAt := func(x, y float64) {
		r := NewRadio(packet.NodeID(len(radios)), s, fixedPos(x, y), params)
		r.SetMAC(&recorder{})
		ch.Attach(r)
		ch.SetMotion(r, staticMotion(x, y))
		radios = append(radios, r)
	}
	for i := 0; i < 300; i++ {
		addAt(rng.Range(-3000, 3000), rng.Range(-3000, 3000))
	}
	// Cell corners and edges: positions where floor-based bucketing is
	// most likely to disagree with the distance test.
	for i := -2; i <= 2; i++ {
		addAt(float64(i)*cell, 0)
		addAt(float64(i)*cell, cell)
		addAt(float64(i)*cell+cell/2, -cell)
	}
	// Exactly at carrier-sense range from the origin (the boundary the
	// rangeMargin epsilon exists for).
	addAt(csRange, 0)
	addAt(0, -csRange)

	for trial := 0; trial < 64; trial++ {
		src := geom.V(rng.Range(-3000, 3000), rng.Range(-3000, 3000))
		got := ch.idx.candidates(s.Now(), src)
		inSet := make(map[int32]bool, len(got))
		for i, slot := range got {
			inSet[slot] = true
			if i > 0 && got[i-1] >= slot {
				t.Fatalf("candidates not strictly ascending: %d then %d", got[i-1], slot)
			}
		}
		for slot, r := range radios {
			audible := prop.RxPower(params.TxPowerW, src, r.pos()) >= params.CSThreshW
			if audible && !inSet[int32(slot)] {
				t.Fatalf("radio %d at %v audible from %v (dist %.3f, cs range %.3f) but culled",
					slot, r.pos(), src, src.Dist(r.pos()), csRange)
			}
		}
	}
}

// TestCulledBroadcastMatchesScanWithMobility runs the same traffic over a
// culled and a full-scan channel — vehicles accelerating, braking and
// redirecting mid-run, plus an unindexed static radio — and demands the
// delivery logs be identical event for event.
func TestCulledBroadcastMatchesScanWithMobility(t *testing.T) {
	type delivery struct {
		at    sim.Time
		radio int
		uid   uint64
	}
	run := func(cull bool) ([]delivery, ChannelStats) {
		s := sim.New()
		ch := NewChannel(s, DefaultPropagation(), &packet.Factory{})
		if cull {
			ch.EnableCulling()
		}
		var log []delivery
		var pf packet.Factory
		const n = 40
		radios := make([]*Radio, 0, n+1)
		attach := func(id int, pos PositionFn) *Radio {
			r := NewRadio(packet.NodeID(id), s, pos, DefaultRadioParams())
			idx := len(radios)
			r.SetMAC(recorderFunc(func(p *packet.Packet, _ bool) {
				log = append(log, delivery{at: s.Now(), radio: idx, uid: p.UID})
			}))
			ch.Attach(r)
			radios = append(radios, r)
			return r
		}
		// A column of vehicles along +x, spaced past each other's carrier
		// sense, cruising then braking at staggered times.
		vehicles := make([]*mobility.Vehicle, 0, n)
		for i := 0; i < n; i++ {
			v := mobility.NewVehicle(packet.NodeID(i), s, geom.V(float64(i)*150, 0))
			r := attach(i, v.Position)
			ch.SetMotion(r, func() Motion {
				pos, vel, acc := v.Motion()
				return Motion{Pos: pos, Vel: vel, Acc: acc}
			})
			radio := r
			v.OnMotionChange(func() { ch.MotionChanged(radio) })
			vehicles = append(vehicles, v)
		}
		// One radio with no motion info: must stay an always-candidate.
		attach(n, fixedPos(1000, 40))

		for i, v := range vehicles {
			v.SetDest(geom.V(1e6, 0), 30+float64(i%5))
		}
		for i, v := range vehicles {
			if i%3 == 0 {
				v := v
				s.At(sim.Time(2+float64(i)/10), func() { v.Brake(6) })
			}
			if i%7 == 1 {
				v := v
				// Redirect mid-run: a phase-preserving trajectory change the
				// index must hear about.
				s.At(sim.Time(4+float64(i)/10), func() { v.SetDest(geom.V(0, 1e6), 25) })
			}
		}
		// Transmissions sprinkled through the run, mid-segment by design.
		for tick := 0; tick < 80; tick++ {
			src := radios[(tick*7)%len(radios)]
			at := sim.Time(float64(tick) * 0.11)
			s.At(at, func() {
				p := pf.New(packet.TypeCBR, 100, s.Now())
				_ = src.Transmit(p, 0.001)
			})
		}
		s.RunUntil(10)
		return log, ch.Stats()
	}

	culled, culledStats := run(true)
	scanned, scannedStats := run(false)
	if culledStats != scannedStats {
		t.Fatalf("channel stats diverged: culled %+v vs scan %+v", culledStats, scannedStats)
	}
	if len(culled) != len(scanned) {
		t.Fatalf("delivery counts diverged: culled %d vs scan %d", len(culled), len(scanned))
	}
	for i := range culled {
		if culled[i] != scanned[i] {
			t.Fatalf("delivery %d diverged: culled %+v vs scan %+v", i, culled[i], scanned[i])
		}
	}
}

// recorderFunc adapts a function to the MAC interface for delivery-log
// tests that only care about RecvFromPhy.
type recorderFunc func(p *packet.Packet, corrupted bool)

func (f recorderFunc) RecvFromPhy(p *packet.Packet, corrupted bool) { f(p, corrupted) }
func (recorderFunc) ChannelBusy()                                   {}
func (recorderFunc) ChannelIdle()                                   {}

// TestBroadcastSamplesReceiverPositionOnce pins the fix for the double
// dst.pos() sample: power and propagation delay must come from the same
// position, so a receiver's position callback fires exactly once per
// broadcast it is offered.
func TestBroadcastSamplesReceiverPositionOnce(t *testing.T) {
	for _, cull := range []bool{false, true} {
		s := sim.New()
		ch := NewChannel(s, DefaultPropagation(), &packet.Factory{})
		if cull {
			ch.EnableCulling()
		}
		tx := NewRadio(0, s, fixedPos(0, 0), DefaultRadioParams())
		tx.SetMAC(&recorder{})
		ch.Attach(tx)
		calls := 0
		rx := NewRadio(1, s, func() geom.Vec2 {
			calls++
			return geom.V(100, 0)
		}, DefaultRadioParams())
		rx.SetMAC(&recorder{})
		ch.Attach(rx)

		var pf packet.Factory
		if err := tx.Transmit(pf.New(packet.TypeCBR, 100, 0), 0.001); err != nil {
			t.Fatal(err)
		}
		if calls != 1 {
			t.Fatalf("cull=%v: receiver position sampled %d times during broadcast, want 1", cull, calls)
		}
	}
}

// TestFrequencyFilteredArrivalDoesNotClone pins the clone elision: an
// arrival borrows the transmitter's packet, so an arrival discarded by the
// frequency filter never takes (or returns) a per-receiver clone at all.
func TestFrequencyFilteredArrivalDoesNotClone(t *testing.T) {
	s := sim.New()
	pf := &packet.Factory{}
	ch := NewChannel(s, DefaultPropagation(), pf)
	tx := NewRadio(0, s, fixedPos(0, 0), DefaultRadioParams())
	tx.SetMAC(&recorder{})
	ch.Attach(tx)
	rxMAC := &recorder{}
	rx := NewRadio(1, s, fixedPos(100, 0), DefaultRadioParams())
	rx.SetMAC(rxMAC)
	rx.SetFreqFn(func() int { return 7 }) // tuned away: every arrival filtered
	ch.Attach(rx)

	if err := tx.Transmit(pf.New(packet.TypeCBR, 100, 0), 0.001); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(1)
	if got := ch.Stats().FilteredFreq; got != 1 {
		t.Fatalf("FilteredFreq = %d, want 1", got)
	}
	if len(rxMAC.frames) != 0 {
		t.Fatalf("filtered receiver still got %d frames", len(rxMAC.frames))
	}
	if pf.Pooled() != 0 || pf.Allocated() != 1 {
		t.Fatalf("pool holds %d packets, factory made %d: a borrowed arrival has no clone to release",
			pf.Pooled(), pf.Allocated())
	}
}

// TestEagerCloneRecycledOnFilter pins the eager-clone fallback (first bit
// arriving at or after the sender's end of transmission): its filtered
// clone must go back to the run's packet pool and back the next clone.
func TestEagerCloneRecycledOnFilter(t *testing.T) {
	if !packet.Recycles {
		t.Skip("the checkall build quarantines released packets")
	}
	s := sim.New()
	pf := &packet.Factory{}
	ch := NewChannel(s, DefaultPropagation(), pf)
	tx := NewRadio(0, s, fixedPos(0, 0), DefaultRadioParams())
	tx.SetMAC(&recorder{})
	ch.Attach(tx)
	rxMAC := &recorder{}
	rx := NewRadio(1, s, fixedPos(100, 0), DefaultRadioParams())
	rx.SetMAC(rxMAC)
	rx.SetFreqFn(func() int { return 7 }) // tuned away: every arrival filtered
	ch.Attach(rx)

	// 100 m of propagation is ~333 ns; a 100 ns frame ends before its first
	// bit lands, so offer must clone eagerly rather than borrow.
	const dur = 100e-9
	if err := tx.Transmit(pf.New(packet.TypeCBR, 100, 0), dur); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(1)
	if got := ch.Stats().FilteredFreq; got != 1 {
		t.Fatalf("FilteredFreq = %d, want 1", got)
	}
	if pf.Pooled() != 1 {
		t.Fatalf("pool holds %d packets after a filtered eager arrival, want 1", pf.Pooled())
	}
	// The next eager broadcast must reuse the pooled clone, not allocate:
	// the factory pops it for the new frame, and the frame's own clone is
	// then the one allocation.
	next := pf.New(packet.TypeCBR, 100, 0)
	if pf.Pooled() != 0 {
		t.Fatal("New did not pop the recycled clone")
	}
	if err := tx.Transmit(next, dur); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(2)
	if pf.Pooled() != 1 {
		t.Fatal("recycled clone not returned after second filtered arrival")
	}
}

// TestCloneIntoDeepCopies guards CloneInto's aliasing contract: header
// reuse must never leak state from the pooled destination or share
// mutable memory with the source.
func TestCloneIntoDeepCopies(t *testing.T) {
	var pf packet.Factory
	src := pf.New(packet.TypeTCP, 1000, 3)
	src.TCP = &packet.TCPHdr{Seq: 9, Echo: 1.5}
	dst := pf.New(packet.TypeTCP, 40, 0)
	dst.SetTCP(packet.TCPHdr{Seq: 77, Retransmit: true})
	oldHdr := dst.TCP

	got := src.CloneInto(dst)
	if got != dst {
		t.Fatal("CloneInto must return dst")
	}
	if dst.TCP == src.TCP {
		t.Fatal("TCP header aliased between source and clone")
	}
	if dst.TCP != oldHdr {
		t.Fatal("CloneInto moved the TCP header out of the destination packet")
	}
	if *dst.TCP != *src.TCP {
		t.Fatalf("TCP header not copied: %+v vs %+v", *dst.TCP, *src.TCP)
	}
	dst.TCP.Seq = 1234
	if src.TCP.Seq != 9 {
		t.Fatal("mutating the clone's TCP header reached the source")
	}
	// A TCP-less source must not resurrect the pooled header.
	plain := pf.New(packet.TypeCBR, 64, 4)
	plain.CloneInto(dst)
	if dst.TCP != nil {
		t.Fatal("clone of a TCP-less packet kept a stale TCP header")
	}
}

// TestIndexLateActivation covers the attach-order corner: radios that
// attach (and receive motion info) while no finite cull range exists yet
// must be promoted into the grid when a normally-parameterised radio
// finally provides one.
func TestIndexLateActivation(t *testing.T) {
	s := sim.New()
	ch := NewChannel(s, DefaultPropagation(), &packet.Factory{})
	ch.EnableCulling()
	degenerate := DefaultRadioParams()
	degenerate.TxPowerW = 0 // no finite range derivable
	r0 := NewRadio(0, s, fixedPos(0, 0), degenerate)
	r0.SetMAC(&recorder{})
	ch.Attach(r0)
	ch.SetMotion(r0, staticMotion(0, 0))
	if ch.idx.active() {
		t.Fatal("index active with a degenerate radio only")
	}
	// A normal radio arrives: the index must activate and index r0 too.
	r1 := NewRadio(1, s, fixedPos(100, 0), DefaultRadioParams())
	r1.SetMAC(&recorder{})
	ch.Attach(r1)
	ch.SetMotion(r1, staticMotion(100, 0))
	if !ch.idx.active() {
		t.Fatal("index still inactive after a normal radio attached")
	}
	got := ch.idx.candidates(s.Now(), geom.V(50, 0))
	want := []int32{0, 1}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("candidates = %v, want %v (degenerate-era radio lost)", got, want)
	}
}
