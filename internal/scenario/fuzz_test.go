package scenario_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"vanetsim/internal/app"
	"vanetsim/internal/fault"
	"vanetsim/internal/geom"
	"vanetsim/internal/packet"
	"vanetsim/internal/scenario"
	"vanetsim/internal/sim"
)

// topologyConservation builds a small random topology and traffic pattern
// over the full stack (AODV + MAC + PHY), optionally impaired by the fault
// layer, runs it, and checks end-to-end conservation invariants:
//
//   - a sink never receives more UNIQUE datagrams than its source sent
//     (duplicates are legal: when every ACK of an exchange is lost the
//     source cannot distinguish "data lost" from "ACK lost", declares the
//     link broken, and AODV salvage re-sends a datagram that already
//     arrived — at-least-once delivery, exactly as real UDP over 802.11);
//   - no delivery happens before its own send time;
//   - the run terminates (no event-loop livelock).
//
// It reports failures through t and returns false on the first violated
// conservation bound. Shared by the quick.Check test and the native fuzz
// target.
func topologyConservation(t *testing.T, mac scenario.MACType, seed uint16, nRaw, flowsRaw, faultRaw uint8) bool {
	n := int(nRaw%5) + 3      // 3..7 nodes
	nf := int(flowsRaw%3) + 1 // 1..3 flows
	rng := sim.NewRNG(uint64(seed) + 99)
	cfg := scenario.DefaultStackConfig(mac)
	cfg.Check = true
	// faultRaw != 0 impairs the run: up to 60% independent loss plus up to
	// 7 dB shadowing. The invariants must hold on an arbitrarily bad
	// channel — loss may shrink delivery, never duplicate or time-travel.
	if faultRaw != 0 {
		cfg.Faults = fault.Plan{
			Bernoulli:     fault.Bernoulli{LossProb: float64(faultRaw%61) / 100},
			ShadowSigmaDB: float64(faultRaw % 8),
		}
	}
	w := scenario.NewWorld(cfg, uint64(seed))
	for i := 0; i < n; i++ {
		x, y := rng.Range(0, 500), rng.Range(0, 500)
		w.AddNode(packet.NodeID(i), func() geom.Vec2 { return geom.V(x, y) })
	}
	type flow struct {
		src  *app.UDPSource
		sink *app.UDPSink
	}
	var flows []flow
	var unique []map[uint64]bool
	for k := 0; k < nf; k++ {
		from := rng.Intn(n)
		to := rng.Intn(n)
		if to == from {
			to = (to + 1) % n
		}
		port := 5000 + 2*k
		fl := flow{
			src:  app.NewUDPSource(w.Sched, w.Nodes[from].Net, w.PF, port, packet.NodeID(to), port+1, packet.TypeCBR),
			sink: app.NewUDPSink(w.Sched, w.Nodes[to].Net, port+1),
		}
		seen := make(map[uint64]bool)
		fl.sink.OnRecv(func(p *packet.Packet, at sim.Time) {
			seen[p.UID] = true
			if at < p.SentAt {
				t.Errorf("mac=%v seed=%d fault=%d flow=%d: uid %d delivered at %v before its send time %v",
					mac, seed, faultRaw, k, p.UID, at, p.SentAt)
			}
		})
		unique = append(unique, seen)
		app.NewCBR(w.Sched, fl.src, 400, 5e4).Start()
		flows = append(flows, fl)
	}
	w.Sched.RunUntil(10)
	for _, v := range w.Finish().Violations {
		t.Errorf("mac=%v seed=%d fault=%d: %v", mac, seed, faultRaw, v.Error())
	}
	for k, fl := range flows {
		if len(unique[k]) > fl.src.Sent() {
			t.Errorf("mac=%v seed=%d fault=%d flow=%d: %d unique datagrams delivered > %d sent",
				mac, seed, faultRaw, k, len(unique[k]), fl.src.Sent())
			return false
		}
	}
	return !t.Failed()
}

// TestRandomTopologyConservation drives the invariant check from
// testing/quick for fast every-run coverage, clean and faulted.
func TestRandomTopologyConservation(t *testing.T) {
	for _, mac := range []scenario.MACType{scenario.MAC80211, scenario.MACTDMA} {
		mac := mac
		f := func(seed uint16, nRaw, flowsRaw, faultRaw uint8) bool {
			return topologyConservation(t, mac, seed, nRaw, flowsRaw, faultRaw)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
			t.Fatal(fmt.Errorf("mac %v: %w", mac, err))
		}
	}
}

// FuzzTopologyConservation is the native fuzz entry point the nightly CI
// job runs with -fuzz: the engine mutates topology, traffic, and fault
// bytes freely, and the same conservation invariants must hold.
func FuzzTopologyConservation(f *testing.F) {
	f.Add(uint16(1), uint8(0), uint8(0), uint8(0), false)
	f.Add(uint16(7), uint8(4), uint8(2), uint8(55), true)
	f.Add(uint16(999), uint8(255), uint8(255), uint8(255), false)
	f.Fuzz(func(t *testing.T, seed uint16, nRaw, flowsRaw, faultRaw uint8, dcf bool) {
		mac := scenario.MACTDMA
		if dcf {
			mac = scenario.MAC80211
		}
		topologyConservation(t, mac, seed, nRaw, flowsRaw, faultRaw)
	})
}
