package aodv_test

import (
	"testing"

	"vanetsim/internal/aodv"
	"vanetsim/internal/app"
	"vanetsim/internal/geom"
	"vanetsim/internal/packet"
	"vanetsim/internal/phy"
	"vanetsim/internal/scenario"
	"vanetsim/internal/sim"
)

func fixed(x, y float64) phy.PositionFn {
	return func() geom.Vec2 { return geom.V(x, y) }
}

// line builds an 802.11 world with nodes spaced apart on the x axis.
// Spacing of 200 m keeps only adjacent nodes within the 250 m receive
// range, forcing multi-hop routes.
func line(t *testing.T, n int, spacing float64) *scenario.World {
	t.Helper()
	w := scenario.NewWorld(scenario.DefaultStackConfig(scenario.MAC80211), 42)
	for i := 0; i < n; i++ {
		w.AddNode(packet.NodeID(i), fixed(float64(i)*spacing, 0))
	}
	return w
}

func TestOneHopDiscoveryAndDelivery(t *testing.T) {
	w := line(t, 2, 100)
	src := app.NewUDPSource(w.Sched, w.Nodes[0].Net, w.PF, 10, 1, 20, packet.TypeCBR)
	sink := app.NewUDPSink(w.Sched, w.Nodes[1].Net, 20)
	src.Send(512, nil)
	w.Sched.RunUntil(1)
	if sink.Received() != 1 {
		t.Fatalf("delivered %d datagrams, want 1", sink.Received())
	}
	r := w.Nodes[0].AODV.RouteTo(1)
	if r == nil || r.Hops != 1 || r.NextHop != 1 {
		t.Fatalf("route after discovery = %+v", r)
	}
	st := w.Nodes[0].AODV.Stats()
	if st.RREQOriginated < 1 {
		t.Fatal("no RREQ originated")
	}
}

func TestMultiHopDiscovery(t *testing.T) {
	w := line(t, 4, 200) // 0-1-2-3, only adjacent in range
	src := app.NewUDPSource(w.Sched, w.Nodes[0].Net, w.PF, 10, 3, 20, packet.TypeCBR)
	sink := app.NewUDPSink(w.Sched, w.Nodes[3].Net, 20)
	var rxHops int
	sink.OnRecv(func(p *packet.Packet, _ sim.Time) { rxHops = p.NumForwards })
	src.Send(512, nil)
	w.Sched.RunUntil(2)
	if sink.Received() != 1 {
		t.Fatalf("delivered %d datagrams over 3 hops, want 1", sink.Received())
	}
	r := w.Nodes[0].AODV.RouteTo(3)
	if r == nil || r.Hops != 3 || r.NextHop != 1 {
		t.Fatalf("route = %+v, want 3 hops via node 1", r)
	}
	if rxHops != 2 {
		t.Fatalf("NumForwards = %d, want 2 intermediate forwards", rxHops)
	}
	// Intermediate nodes must have forwarded data.
	if w.Nodes[1].AODV.Stats().DataForwarded != 1 || w.Nodes[2].AODV.Stats().DataForwarded != 1 {
		t.Fatal("intermediate nodes did not forward")
	}
}

func TestPacketsBufferedDuringDiscovery(t *testing.T) {
	w := line(t, 3, 200)
	src := app.NewUDPSource(w.Sched, w.Nodes[0].Net, w.PF, 10, 2, 20, packet.TypeCBR)
	sink := app.NewUDPSink(w.Sched, w.Nodes[2].Net, 20)
	// Burst before any route exists: all must arrive after one discovery.
	for i := 0; i < 5; i++ {
		src.Send(256, nil)
	}
	w.Sched.RunUntil(2)
	if sink.Received() != 5 {
		t.Fatalf("delivered %d/5 buffered datagrams", sink.Received())
	}
	if got := w.Nodes[0].AODV.Stats().RREQOriginated; got != 1 {
		t.Fatalf("RREQs = %d, want a single discovery for the burst", got)
	}
}

func TestUnreachableDestinationDropsBuffered(t *testing.T) {
	w := line(t, 2, 100)
	src := app.NewUDPSource(w.Sched, w.Nodes[0].Net, w.PF, 10, 99, 20, packet.TypeCBR)
	src.Send(256, nil)
	src.Send(256, nil)
	w.Sched.RunUntil(30)
	st := w.Nodes[0].AODV.Stats()
	if st.BufferedDropped != 2 {
		t.Fatalf("BufferedDropped = %d, want 2", st.BufferedDropped)
	}
	// Expanding ring: retries escalate the TTL, so multiple RREQs.
	wantRREQs := w.Config().AODV.RREQRetries + 1
	if st.RREQOriginated != wantRREQs {
		t.Fatalf("RREQOriginated = %d, want %d (initial + retries)", st.RREQOriginated, wantRREQs)
	}
	if w.Nodes[0].AODV.RouteTo(99) != nil {
		t.Fatal("phantom route to unreachable destination")
	}
}

func TestDuplicateRREQSuppression(t *testing.T) {
	// A dense cluster: every node hears every rebroadcast, so the dedup
	// cache must suppress the echo storm.
	w := scenario.NewWorld(scenario.DefaultStackConfig(scenario.MAC80211), 7)
	for i := 0; i < 5; i++ {
		w.AddNode(packet.NodeID(i), fixed(float64(i)*30, 0))
	}
	src := app.NewUDPSource(w.Sched, w.Nodes[0].Net, w.PF, 10, 4, 20, packet.TypeCBR)
	app.NewUDPSink(w.Sched, w.Nodes[4].Net, 20)
	src.Send(100, nil)
	w.Sched.RunUntil(2)
	dups := 0
	for _, n := range w.Nodes {
		dups += n.AODV.Stats().RREQDuplicates
	}
	if dups == 0 {
		t.Fatal("expected duplicate RREQs to be seen and suppressed in a dense cluster")
	}
}

func TestLinkBreakSalvageAndRediscovery(t *testing.T) {
	// 0 -> 1 -> 2; node 2 then moves out of node 1's range but within a
	// fresh route 0 -> 1 -> ... none possible; instead it moves next to 0
	// so rediscovery finds a direct route.
	w := scenario.NewWorld(scenario.DefaultStackConfig(scenario.MAC80211), 11)
	pos2 := geom.V(400, 0)
	w.AddNode(0, fixed(0, 0))
	w.AddNode(1, fixed(200, 0))
	w.AddNode(2, func() geom.Vec2 { return pos2 })
	src := app.NewUDPSource(w.Sched, w.Nodes[0].Net, w.PF, 10, 2, 20, packet.TypeCBR)
	sink := app.NewUDPSink(w.Sched, w.Nodes[2].Net, 20)
	src.Send(100, nil)
	w.Sched.RunUntil(1)
	if sink.Received() != 1 {
		t.Fatal("setup: two-hop route should work")
	}
	// Teleport node 2 out of node 1's range but into node 0's: the old
	// next hop fails at node 1, which repairs the route locally (node 2
	// is reachable again via node 0), so the in-flight packet survives.
	pos2 = geom.V(-150, 0)
	w.Sched.Schedule(0, func() { src.Send(100, nil) })
	w.Sched.RunUntil(3)
	if w.Nodes[1].AODV.Stats().LinkBreaks == 0 {
		t.Fatal("node 1 never detected the broken link")
	}
	if w.Nodes[1].AODV.Stats().RepairsStarted == 0 {
		t.Fatal("node 1 never attempted a local repair")
	}
	src.Send(100, nil)
	w.Sched.RunUntil(6)
	if sink.Received() != 3 {
		t.Fatalf("delivered %d/3 packets; local repair should save the in-flight one", sink.Received())
	}
	if w.Nodes[1].AODV.Stats().RepairsFailed != 0 {
		t.Fatal("repair reported failed despite an available path")
	}
}

func TestUnrepairableLinkBreakSendsRERR(t *testing.T) {
	// With MaxRepairHops 0 no break is close enough to repair, so the
	// intermediate node reports the route error at once.
	cfg := scenario.DefaultStackConfig(scenario.MAC80211)
	cfg.AODV.MaxRepairHops = 0
	w := scenario.NewWorld(cfg, 11)
	pos2 := geom.V(400, 0)
	w.AddNode(0, fixed(0, 0))
	w.AddNode(1, fixed(200, 0))
	w.AddNode(2, func() geom.Vec2 { return pos2 })
	src := app.NewUDPSource(w.Sched, w.Nodes[0].Net, w.PF, 10, 2, 20, packet.TypeCBR)
	sink := app.NewUDPSink(w.Sched, w.Nodes[2].Net, 20)
	src.Send(100, nil)
	w.Sched.RunUntil(1)
	if sink.Received() != 1 {
		t.Fatal("setup: two-hop route should work")
	}
	pos2 = geom.V(-150, 0)
	w.Sched.Schedule(0, func() { src.Send(100, nil) }) // lost in flight
	w.Sched.RunUntil(3)
	st := w.Nodes[1].AODV.Stats()
	if st.RepairsStarted != 0 {
		t.Fatal("repair attempted on a break beyond MaxRepairHops")
	}
	if st.RERRSent == 0 {
		t.Fatal("node 1 sent no route error")
	}
	// The source rediscovers on the next packet and finds node 2 directly.
	src.Send(100, nil)
	w.Sched.RunUntil(6)
	if sink.Received() < 2 {
		t.Fatalf("delivered %d packets after rediscovery", sink.Received())
	}
	r := w.Nodes[0].AODV.RouteTo(2)
	if r == nil || r.Hops != 1 || r.NextHop != 2 {
		t.Fatalf("rediscovered route = %+v, want direct 1-hop", r)
	}
}

func TestLocalRepairFailureEmitsDeferredRERR(t *testing.T) {
	// The destination disappears entirely: the intermediate node's repair
	// must fail and only then produce the route error.
	w := scenario.NewWorld(scenario.DefaultStackConfig(scenario.MAC80211), 13)
	pos2 := geom.V(400, 0)
	w.AddNode(0, fixed(0, 0))
	w.AddNode(1, fixed(200, 0))
	w.AddNode(2, func() geom.Vec2 { return pos2 })
	src := app.NewUDPSource(w.Sched, w.Nodes[0].Net, w.PF, 10, 2, 20, packet.TypeCBR)
	sink := app.NewUDPSink(w.Sched, w.Nodes[2].Net, 20)
	src.Send(100, nil)
	w.Sched.RunUntil(1)
	if sink.Received() != 1 {
		t.Fatal("setup failed")
	}
	pos2 = geom.V(9000, 9000) // gone for good
	w.Sched.Schedule(0, func() { src.Send(100, nil) })
	w.Sched.RunUntil(30)
	st := w.Nodes[1].AODV.Stats()
	if st.RepairsStarted == 0 {
		t.Fatal("no repair attempted")
	}
	if st.RepairsFailed == 0 {
		t.Fatal("repair against a vanished destination should fail")
	}
	if st.RERRSent == 0 {
		t.Fatal("failed repair must emit the deferred route error")
	}
	if sink.Received() != 1 {
		t.Fatal("phantom delivery to a vanished node")
	}
}

func TestRouteExpiry(t *testing.T) {
	cfg := scenario.DefaultStackConfig(scenario.MAC80211)
	cfg.AODV.ActiveRouteTimeout = 1 // second
	cfg.AODV.MyRouteTimeout = 1
	w := scenario.NewWorld(cfg, 3)
	w.AddNode(0, fixed(0, 0))
	w.AddNode(1, fixed(100, 0))
	src := app.NewUDPSource(w.Sched, w.Nodes[0].Net, w.PF, 10, 1, 20, packet.TypeCBR)
	app.NewUDPSink(w.Sched, w.Nodes[1].Net, 20)
	src.Send(100, nil)
	w.Sched.RunUntil(0.5)
	if w.Nodes[0].AODV.RouteTo(1) == nil {
		t.Fatal("route should be fresh at 0.5 s")
	}
	w.Sched.RunUntil(3)
	if w.Nodes[0].AODV.RouteTo(1) != nil {
		t.Fatal("route should have expired after its lifetime")
	}
	st := w.Nodes[0].AODV.Stats()
	if st.RREQOriginated != 1 {
		t.Fatalf("expiry should be lazy, not trigger discovery: RREQs=%d", st.RREQOriginated)
	}
}

func TestDataTTLExpiry(t *testing.T) {
	// A packet injected with TTL 1 must die at the first forwarder.
	w := line(t, 3, 200)
	src := app.NewUDPSource(w.Sched, w.Nodes[0].Net, w.PF, 10, 2, 20, packet.TypeCBR)
	sink := app.NewUDPSink(w.Sched, w.Nodes[2].Net, 20)
	// Prime the route first.
	src.Send(100, nil)
	w.Sched.RunUntil(2)
	if sink.Received() != 1 {
		t.Fatal("setup failed")
	}
	// Inject a datagram with an explicit TTL of 1 (SendFrom keeps it).
	p := w.PF.New(packet.TypeCBR, 100+app.UDPHdrBytes, w.Sched.Now())
	p.IP.Dst, p.IP.SrcPort, p.IP.DstPort, p.IP.TTL = 2, 10, 20, 1
	w.Nodes[0].Net.SendFrom(p)
	w.Sched.RunUntil(4)
	if sink.Received() != 1 {
		t.Fatalf("sink received %d datagrams, want only the priming one", sink.Received())
	}
	if got := w.Nodes[1].AODV.Stats().DataTTLExpired; got != 1 {
		t.Fatalf("DataTTLExpired at the first forwarder = %d, want 1", got)
	}
}

func TestIntermediateNodeReplies(t *testing.T) {
	// After 0 learns a route to 3 via discovery, node 1 (on the path)
	// holds a fresh route to 3. A discovery by a new node adjacent to 1
	// can be answered by 1 without reaching 3.
	w := line(t, 4, 200)
	srcA := app.NewUDPSource(w.Sched, w.Nodes[0].Net, w.PF, 10, 3, 20, packet.TypeCBR)
	app.NewUDPSink(w.Sched, w.Nodes[3].Net, 20)
	srcA.Send(100, nil)
	w.Sched.RunUntil(2)
	// New node 4 adjacent to 1 (and 0 and 2).
	n4 := w.AddNode(4, fixed(200, 100))
	srcB := app.NewUDPSource(w.Sched, n4.Net, w.PF, 10, 3, 21, packet.TypeCBR)
	srcB.Send(100, nil)
	w.Sched.RunUntil(4)
	replies := w.Nodes[1].AODV.Stats().RREPOriginated + w.Nodes[2].AODV.Stats().RREPOriginated
	if replies == 0 {
		t.Fatal("no intermediate node answered from its route cache")
	}
	if r := n4.AODV.RouteTo(3); r == nil {
		t.Fatal("node 4 has no route to 3")
	}
}

func TestAODVConfigDefaults(t *testing.T) {
	cfg := aodv.DefaultConfig()
	if cfg.TTLStart >= cfg.NetDiameter {
		t.Fatal("ring search must start below the network diameter")
	}
}
