package phy

import (
	"fmt"
	"testing"

	"vanetsim/internal/geom"
	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
)

// nullMAC swallows deliveries so benchmarks measure the channel, not a
// recording sink.
type nullMAC struct{}

func (nullMAC) RecvFromPhy(*packet.Packet, bool) {}
func (nullMAC) ChannelBusy()                     {}
func (nullMAC) ChannelIdle()                     {}

// benchBroadcast measures one transmission's full channel cost — candidate
// selection, per-receiver power checks, arrival scheduling and the arrival
// events themselves — over a dense-highway geometry: n radios in a 25 m
// line, transmitter in the middle. Receivers are tuned to another
// frequency channel so every arrival takes the filtered path: the arrival
// structs and packet clones recycle through the channel's free lists and
// the steady state is allocation-free, which keeps the scan-vs-culled
// comparison a pure measure of the broadcast path. The carrier-sense disc
// holds ~45 receivers (550 m / 25 m, both sides) regardless of n: culled
// cost is flat in n, scan cost is linear.
func benchBroadcast(b *testing.B, n int, cull bool) {
	s := sim.New()
	ch := NewChannel(s, DefaultPropagation(), &packet.Factory{})
	if cull {
		ch.EnableCulling()
	}
	offChannel := func() int { return 1 }
	for i := 0; i < n; i++ {
		x := float64(i) * 25
		r := NewRadio(packet.NodeID(i), s, fixedPos(x, 0), DefaultRadioParams())
		r.SetMAC(nullMAC{})
		if i != n/2 {
			r.SetFreqFn(offChannel)
		}
		ch.Attach(r)
		ch.SetMotion(r, staticMotion(x, 0))
	}
	src := ch.Radios()[n/2]
	var pf packet.Factory
	p := pf.New(packet.TypeCBR, 100, 0)
	// Warm the free lists (first broadcast allocates its arrival pool).
	ch.broadcast(src, p, 0.001)
	s.RunUntil(s.Now() + 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.broadcast(src, p, 0.001)
		s.RunUntil(s.Now() + 1)
	}
}

func BenchmarkBroadcastScan(b *testing.B) {
	for _, n := range []int{100, 1000, 2000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchBroadcast(b, n, false) })
	}
}

func BenchmarkBroadcastCulled(b *testing.B) {
	for _, n := range []int{100, 1000, 2000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchBroadcast(b, n, true) })
	}
}

// BenchmarkBroadcastCulledMoving is the culled path with every radio
// reporting highway cruise velocity: cell-revalidation deadlines expire a
// few simulated seconds apart forever, so each broadcast pays the index's
// lazy refresh (deadline-heap pops and grid re-buckets) on top of
// candidate selection — the mobility-aware machinery, not just the
// static-grid best case. Positions are pinned so the neighborhood, and
// with it the work being measured, stays constant across iterations.
func BenchmarkBroadcastCulledMoving(b *testing.B) {
	const n = 1000
	s := sim.New()
	ch := NewChannel(s, DefaultPropagation(), &packet.Factory{})
	ch.EnableCulling()
	offChannel := func() int { return 1 }
	for i := 0; i < n; i++ {
		x := float64(i) * 25
		r := NewRadio(packet.NodeID(i), s, fixedPos(x, 0), DefaultRadioParams())
		r.SetMAC(nullMAC{})
		if i != n/2 {
			r.SetFreqFn(offChannel)
		}
		ch.Attach(r)
		xi := x
		ch.SetMotion(r, func() Motion {
			return Motion{Pos: geom.V(xi, 0), Vel: geom.V(30, 0)}
		})
	}
	src := ch.Radios()[n/2]
	var pf packet.Factory
	p := pf.New(packet.TypeCBR, 100, 0)
	ch.broadcast(src, p, 0.001)
	s.RunUntil(s.Now() + 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.broadcast(src, p, 0.001)
		s.RunUntil(s.Now() + 1)
	}
}
