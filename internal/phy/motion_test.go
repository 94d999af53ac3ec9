package phy

import (
	"math"
	"testing"

	"vanetsim/internal/geom"
	"vanetsim/internal/mobility"
	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
)

// distLog wraps a propagation model and records every distance broadcast
// asks it about.
type distLog struct {
	Propagation
	dists []float64
}

func (d *distLog) RxPower(txPower, dist float64) float64 {
	d.dists = append(d.dists, dist)
	return d.Propagation.RxPower(txPower, dist)
}

func sameBits(a, b geom.Vec2) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

// TestChannelPositionMatchesVehicle drives a vehicle through every way its
// trajectory changes — depart, a redirect in the same instant that
// replaces the segment just made, brake to a stop, depart and arrive, a
// departure toward where it already is, and a halt — and broadcasts to
// and from it at every change and at instants between them. The position
// the channel computes from its motion table must equal
// Vehicle.Position() to the bit, and so must the distance every broadcast
// feeds the propagation model, with culling on and with it off.
func TestChannelPositionMatchesVehicle(t *testing.T) {
	for _, cull := range []bool{false, true} {
		s := sim.New()
		prop := &distLog{Propagation: DefaultPropagation()}
		ch := NewChannel(s, prop, &packet.Factory{})
		if cull {
			ch.EnableCulling()
		}
		peerPos := geom.V(150, 35)
		peer := NewRadio(0, s, fixedPos(peerPos.X, peerPos.Y), DefaultRadioParams())
		peer.SetMAC(&recorder{})
		ch.Attach(peer)
		v := mobility.NewVehicle(1, s, geom.V(3.7, 0))
		car := NewRadio(1, s, v.Position, DefaultRadioParams())
		car.SetMAC(&recorder{})
		ch.Attach(car)
		ch.SetMotion(car, func() Motion {
			start, law := v.Motion()
			return Motion{Start: start, Kinematics: law}
		})
		v.OnMotionChange(func() { ch.MotionChanged(car) })

		var pf packet.Factory
		sent := 0
		probe := func() {
			now := s.Now()
			want := v.Position()
			if got := ch.position(car.slot, now); !sameBits(got, want) {
				t.Fatalf("cull=%v t=%v: channel position %v, vehicle %v", cull, now, got, want)
			}
			wantDist := peerPos.Dist(want)
			for _, r := range []*Radio{car, peer} {
				prop.dists = prop.dists[:0]
				if r.Transmit(pf.New(packet.TypeCBR, 100, now), 1e-6) != nil {
					continue // still sending from a probe in this instant
				}
				if len(prop.dists) != 1 || math.Float64bits(prop.dists[0]) != math.Float64bits(wantDist) {
					t.Fatalf("cull=%v t=%v: radio %v's broadcast used distances %v, want [%v]",
						cull, now, r.ID(), prop.dists, wantDist)
				}
				sent++
			}
		}
		changes := 0
		v.OnMotionChange(func() { changes++; probe() })
		events := map[mobility.EventType]int{}
		v.Subscribe(func(e mobility.Event) { events[e.Type]++ })

		s.At(0.5, func() {
			v.SetDest(geom.V(103.7, 50), 13.9)
			v.SetDest(geom.V(403.7, -20), 27.8) // same instant: replaces the segment
		})
		s.At(3, func() { v.Brake(4.5) })                   // stops on its own at ~9.2 s
		s.At(10, func() { v.SetDest(geom.V(250, 0), 20) }) // arrives at ~16 s
		s.At(17, func() { v.SetDest(v.Position(), 5) })    // already there: stops in place
		s.At(18, func() { v.SetDest(geom.V(0, 0), 30) })
		s.At(20.25, func() { v.Halt() })
		for i := 1; i < 60; i++ {
			s.At(sim.Time(float64(i)*0.37), probe)
		}
		s.RunUntil(25)

		// Two departures at 0.5 s, brake, its stop, departure, arrival, the
		// stop in place (already stopped: no event), departure and halt.
		if changes != 9 || events[mobility.EventDeparted] != 3 || events[mobility.EventBrakeStart] != 1 || events[mobility.EventStopped] != 3 {
			t.Fatalf("cull=%v: %d segments and motion events %v, want 9 segments, 3 departures, 1 brake, 3 stops",
				cull, changes, events)
		}
		if sent < 100 {
			t.Fatalf("cull=%v: only %d broadcasts checked", cull, sent)
		}
	}
}
