package mac80211

import (
	"testing"

	"vanetsim/internal/geom"
	"vanetsim/internal/packet"
	"vanetsim/internal/phy"
	"vanetsim/internal/queue"
	"vanetsim/internal/sim"
)

type upRecorder struct {
	received []*packet.Packet
	done     []*packet.Packet
	doneOK   []bool
}

func (u *upRecorder) RecvFromMac(p *packet.Packet) { u.received = append(u.received, p) }
func (u *upRecorder) MacTxDone(p *packet.Packet, ok bool) {
	u.done = append(u.done, p)
	u.doneOK = append(u.doneOK, ok)
}

type node struct {
	mac *MAC
	ifq queue.Queue
	up  *upRecorder
}

// rig builds n DCF nodes 50 m apart on a line, all in range of each other.
func rig(t *testing.T, n int, cfg Config) (*sim.Scheduler, []*node, *packet.Factory) {
	t.Helper()
	s := sim.New()
	pf := &packet.Factory{}
	ch := phy.NewChannel(s, phy.DefaultPropagation(), pf)
	rng := sim.NewRNG(1234)
	nodes := make([]*node, n)
	for i := 0; i < n; i++ {
		x := float64(i) * 50
		r := phy.NewRadio(packet.NodeID(i), s, func() geom.Vec2 { return geom.V(x, 0) }, phy.DefaultRadioParams())
		ch.Attach(r)
		up := &upRecorder{}
		ifq := queue.NewDropTail(50, nil)
		m := New(packet.NodeID(i), s, r, ifq, up, pf, rng.Fork(string(rune('a'+i))), cfg)
		nodes[i] = &node{mac: m, ifq: ifq, up: up}
	}
	return s, nodes, pf
}

func send(f *packet.Factory, n *node, dst packet.NodeID, size int) *packet.Packet {
	p := f.New(packet.TypeTCP, size, 0)
	p.IP.Src = n.mac.ID()
	p.IP.Dst = dst
	p.IP.NextHop = dst
	n.ifq.Enqueue(p)
	n.mac.Poke()
	return p
}

func TestUnicastDeliveredAndAcked(t *testing.T) {
	cfg := DefaultConfig()
	s, nodes, f := rig(t, 2, cfg)
	p := send(f, nodes[0], 1, 1000)
	s.RunUntil(0.1)
	if len(nodes[1].up.received) != 1 || nodes[1].up.received[0].UID != p.UID {
		t.Fatalf("receiver got %d packets", len(nodes[1].up.received))
	}
	if len(nodes[0].up.done) != 1 || !nodes[0].up.doneOK[0] {
		t.Fatal("sender should see MacTxDone(ok=true) after ACK")
	}
	st := nodes[0].mac.Stats()
	if st.TxData != 1 || st.Retries != 0 {
		t.Fatalf("clean channel should need one attempt: %+v", st)
	}
	if nodes[1].mac.Stats().TxAck != 1 {
		t.Fatal("receiver should have sent exactly one ACK")
	}
}

func TestUnicastLatencyIsSmall(t *testing.T) {
	// The paper's headline: DCF access latency is DIFS + backoff + tx, a
	// few milliseconds at most — not TDMA's slot wait.
	cfg := DefaultConfig()
	s, nodes, f := rig(t, 2, cfg)
	send(f, nodes[0], 1, 1000)
	var deliveredAt sim.Time
	for s.Step() {
		if len(nodes[1].up.received) > 0 {
			deliveredAt = s.Now()
			break
		}
	}
	if deliveredAt == 0 || deliveredAt > 5*sim.Millisecond {
		t.Fatalf("DCF delivery took %v, want a few ms at most", deliveredAt)
	}
}

func TestBroadcastNoAck(t *testing.T) {
	cfg := DefaultConfig()
	s, nodes, f := rig(t, 3, cfg)
	send(f, nodes[0], packet.Broadcast, 64)
	s.RunUntil(0.1)
	for i := 1; i < 3; i++ {
		if len(nodes[i].up.received) != 1 {
			t.Fatalf("node %d got %d broadcast copies", i, len(nodes[i].up.received))
		}
		if nodes[i].mac.Stats().TxAck != 0 {
			t.Fatal("broadcast must not be acknowledged")
		}
	}
	if len(nodes[0].up.done) != 1 || !nodes[0].up.doneOK[0] {
		t.Fatal("broadcast completes immediately after transmission")
	}
}

func TestRetryLimitReportsLinkFailure(t *testing.T) {
	cfg := DefaultConfig()
	s, nodes, f := rig(t, 2, cfg)
	send(f, nodes[0], 42, 1000) // no such node: no ACK will ever come
	s.RunUntil(1)
	if len(nodes[0].up.done) != 1 || nodes[0].up.doneOK[0] {
		t.Fatal("sender must report MacTxDone(ok=false) after retry limit")
	}
	st := nodes[0].mac.Stats()
	if st.TxData != cfg.RetryLimit+1 {
		t.Fatalf("TxData = %d, want RetryLimit+1 = %d", st.TxData, cfg.RetryLimit+1)
	}
	if st.Drops != 1 {
		t.Fatalf("Drops = %d, want 1", st.Drops)
	}
}

func TestContendingSendersBothSucceed(t *testing.T) {
	// Simultaneous backlogs on two nodes: CSMA/CA with random backoff must
	// eventually deliver everything, despite early collisions.
	cfg := DefaultConfig()
	s, nodes, f := rig(t, 3, cfg)
	const n = 30
	for i := 0; i < n; i++ {
		send(f, nodes[0], 2, 800)
		send(f, nodes[1], 2, 800)
	}
	s.RunUntil(2)
	if got := len(nodes[2].up.received); got != 2*n {
		t.Fatalf("delivered %d/%d packets under contention", got, 2*n)
	}
	for i, ok := range append(nodes[0].up.doneOK, nodes[1].up.doneOK...) {
		if !ok {
			t.Fatalf("transmission %d reported failed", i)
		}
	}
}

func TestQueueDrainsInOrder(t *testing.T) {
	cfg := DefaultConfig()
	s, nodes, f := rig(t, 2, cfg)
	var uids []uint64
	for i := 0; i < 10; i++ {
		uids = append(uids, send(f, nodes[0], 1, 500).UID)
	}
	s.RunUntil(1)
	if len(nodes[1].up.received) != 10 {
		t.Fatalf("delivered %d/10", len(nodes[1].up.received))
	}
	for i, p := range nodes[1].up.received {
		if p.UID != uids[i] {
			t.Fatal("unicast stream reordered by MAC")
		}
	}
}

func TestDuplicateSuppression(t *testing.T) {
	cfg := DefaultConfig()
	_, nodes, f := rig(t, 2, cfg)
	p := f.New(packet.TypeTCP, 100, 0)
	p.Mac = packet.MacHdr{Src: 0, Dst: 1, Subtype: packet.MacData}
	nodes[1].mac.RecvFromPhy(p, false)
	nodes[1].mac.RecvFromPhy(p.Clone(), false) // retransmission of same UID
	if len(nodes[1].up.received) != 1 {
		t.Fatalf("duplicate delivered: got %d", len(nodes[1].up.received))
	}
	if nodes[1].mac.Stats().RxDup != 1 {
		t.Fatal("duplicate not counted")
	}
}

func TestCorruptedFrameIgnored(t *testing.T) {
	cfg := DefaultConfig()
	_, nodes, f := rig(t, 2, cfg)
	p := f.New(packet.TypeTCP, 100, 0)
	p.Mac = packet.MacHdr{Src: 0, Dst: 1, Subtype: packet.MacData}
	nodes[1].mac.RecvFromPhy(p, true)
	if len(nodes[1].up.received) != 0 || nodes[1].mac.Stats().RxCorrupted != 1 {
		t.Fatal("corrupted frame must be dropped and counted")
	}
}

func TestHiddenFrameNAV(t *testing.T) {
	// A frame addressed elsewhere carries a NAV; an overhearing MAC must
	// defer for its duration.
	cfg := DefaultConfig()
	s, nodes, f := rig(t, 3, cfg)
	// Craft a long NAV reservation heard by node 2.
	nav := f.New(packet.TypeTCP, 100, 0)
	nav.Mac = packet.MacHdr{Src: 0, Dst: 1, Subtype: packet.MacData, Duration: 10 * sim.Millisecond}
	nodes[2].mac.RecvFromPhy(nav, false)
	// Node 2 now wants to send; it must hold off until the NAV expires.
	send(f, nodes[2], 1, 100)
	var deliveredAt sim.Time
	for s.Step() {
		if len(nodes[1].up.received) > 0 {
			deliveredAt = s.Now()
			break
		}
	}
	if deliveredAt < 10*sim.Millisecond {
		t.Fatalf("node transmitted at %v inside another station's NAV", deliveredAt)
	}
}

func TestBackoffWithinBounds(t *testing.T) {
	cfg := DefaultConfig()
	s, nodes, f := rig(t, 2, cfg)
	for i := 0; i < 50; i++ {
		send(f, nodes[0], 1, 200)
	}
	s.RunUntil(1)
	m := nodes[0].mac
	if m.cw < cfg.CWMin || m.cw > cfg.CWMax {
		t.Fatalf("contention window %d outside [%d, %d]", m.cw, cfg.CWMin, cfg.CWMax)
	}
	if m.backoffSlots < 0 || m.backoffSlots > m.cw {
		t.Fatalf("backoff %d outside [0, cw=%d]", m.backoffSlots, m.cw)
	}
}

func TestConfigDerivedTimes(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.DIFS <= cfg.SIFS {
		t.Fatal("DIFS must exceed SIFS (ACK priority)")
	}
	if cfg.AckTimeout() <= cfg.SIFS+cfg.AckTxTime() {
		t.Fatal("ACK timeout must cover SIFS + ACK airtime")
	}
	d1000 := cfg.DataTxTime(1000)
	d500 := cfg.DataTxTime(500)
	if d1000 <= d500 {
		t.Fatal("larger frames must take longer")
	}
	// Serialisation difference should be exactly 500 bytes at the data
	// rate (PLCP is constant).
	want := sim.Time(500 * 8 / cfg.DataRateBps)
	if diff := d1000 - d500; diff < want-sim.Nanosecond || diff > want+sim.Nanosecond {
		t.Fatalf("airtime difference = %v, want %v", diff, want)
	}
}

func TestThroughputExceedsTDMAClass(t *testing.T) {
	// Sanity: saturated one-hop DCF at 11 Mb/s moves at least 2 Mb/s of
	// 1000-byte payloads — the ballpark needed for the paper's trial 3 to
	// beat TDMA.
	cfg := DefaultConfig()
	s, nodes, f := rig(t, 2, cfg)
	const n = 600
	for i := 0; i < n; i++ {
		send(f, nodes[0], 1, 1000)
	}
	// Top the queue back up as it drains.
	var refill func()
	refill = func() {
		for nodes[0].ifq.Len() < 40 {
			send(f, nodes[0], 1, 1000)
		}
		if s.Now() < 1.9 {
			s.Schedule(10*sim.Millisecond, refill)
		}
	}
	s.Schedule(0, refill)
	s.RunUntil(2)
	bits := float64(len(nodes[1].up.received)) * 1000 * 8
	mbps := bits / 2 / 1e6
	if mbps < 2 {
		t.Fatalf("saturated DCF throughput = %.2f Mb/s, want > 2", mbps)
	}
}

// releasingUp hands every delivered frame straight back to the packet
// pool, the way the network layer does once it has consumed one.
type releasingUp struct{ pf *packet.Factory }

func (u *releasingUp) RecvFromMac(p *packet.Packet)        { u.pf.Release(p) }
func (u *releasingUp) MacTxDone(p *packet.Packet, ok bool) {}

// TestUnicastExchangeAllocs pins one unicast DATA→ACK exchange in steady
// state at zero allocations: the receiver's clone of the data frame and
// the ACK frame come from the run's packet pool and go back to it, the
// ACK's SIFS callback is bound once and fed a pooled response record, the
// duplicate filter is a fixed ring, and every other DCF callback (ends of
// transmission, the ACK timeout) is bound once per MAC.
func TestUnicastExchangeAllocs(t *testing.T) {
	if !packet.Recycles {
		t.Skip("the checkall build quarantines released packets")
	}
	s := sim.New()
	pf := &packet.Factory{}
	ch := phy.NewChannel(s, phy.DefaultPropagation(), pf)
	rng := sim.NewRNG(1234)
	ifqs := make([]queue.Queue, 2)
	macs := make([]*MAC, 2)
	for i := range macs {
		x := float64(i) * 50
		r := phy.NewRadio(packet.NodeID(i), s, func() geom.Vec2 { return geom.V(x, 0) }, phy.DefaultRadioParams())
		ch.Attach(r)
		ifqs[i] = queue.NewDropTail(1, nil)
		macs[i] = New(packet.NodeID(i), s, r, ifqs[i], &releasingUp{pf: pf}, pf, rng.Fork(string(rune('a'+i))), DefaultConfig())
	}
	p := pf.New(packet.TypeTCP, 1000, 0)
	p.IP.Src, p.IP.Dst, p.IP.NextHop = 0, 1, 1
	exchange := func() {
		p.UID++ // a fresh frame to the receiver's duplicate filter
		ifqs[0].Enqueue(p)
		macs[0].Poke()
		for s.Step() {
		}
	}
	for i := 0; i < 300; i++ { // warm the pools and the dedup window
		exchange()
	}
	if allocs := testing.AllocsPerRun(500, exchange); allocs != 0 {
		t.Fatalf("unicast DATA→ACK exchange: %v allocs, want 0", allocs)
	}
	if st := macs[0].Stats(); st.Retries != 0 || st.TxData != 801 {
		t.Fatalf("clean channel should need one attempt per frame: %+v", st)
	}
}
