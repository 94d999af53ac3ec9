package netlayer

import (
	"testing"

	"vanetsim/internal/packet"
	"vanetsim/internal/queue"
)

// fakeMAC records pokes.
type fakeMAC struct {
	id    packet.NodeID
	pokes int
}

func (m *fakeMAC) ID() packet.NodeID { return m.id }
func (m *fakeMAC) Poke()             { m.pokes++ }

// fakeRouting records calls.
type fakeRouting struct {
	outgoing []*packet.Packet
	incoming []*packet.Packet
	txDone   []bool
}

func (r *fakeRouting) HandleOutgoing(p *packet.Packet)     { r.outgoing = append(r.outgoing, p) }
func (r *fakeRouting) HandleIncoming(p *packet.Packet)     { r.incoming = append(r.incoming, p) }
func (r *fakeRouting) MacTxDone(_ *packet.Packet, ok bool) { r.txDone = append(r.txDone, ok) }

// fakePort records deliveries.
type fakePort struct {
	got []*packet.Packet
}

func (h *fakePort) RecvFromNet(p *packet.Packet) { h.got = append(h.got, p) }

func rig(t *testing.T) (*Net, *fakeMAC, *fakeRouting, queue.Queue) {
	t.Helper()
	n := New(7, &packet.Factory{})
	m := &fakeMAC{id: 7}
	q := queue.NewDropTail(2, nil)
	r := &fakeRouting{}
	n.Attach(q, m)
	n.SetRouting(r)
	return n, m, r, q
}

func mk(f *packet.Factory) *packet.Packet { return f.New(packet.TypeTCP, 100, 0) }

func TestSendFromStampsSourceAndTTL(t *testing.T) {
	n, _, r, _ := rig(t)
	var f packet.Factory
	p := mk(&f)
	p.IP.Dst = 9
	n.SendFrom(p)
	if len(r.outgoing) != 1 {
		t.Fatal("routing did not receive the packet")
	}
	if p.IP.Src != 7 {
		t.Fatalf("source = %v, want node id", p.IP.Src)
	}
	if p.IP.TTL != DefaultTTL {
		t.Fatalf("TTL = %d, want default %d", p.IP.TTL, DefaultTTL)
	}
	if n.Stats().Sent != 1 {
		t.Fatal("Sent not counted")
	}
}

func TestSendFromPreservesExplicitTTL(t *testing.T) {
	n, _, _, _ := rig(t)
	var f packet.Factory
	p := mk(&f)
	p.IP.Dst = 9
	p.IP.TTL = 3
	n.SendFrom(p)
	if p.IP.TTL != 3 {
		t.Fatalf("TTL overwritten: %d", p.IP.TTL)
	}
}

func TestSendEnqueuesAndPokes(t *testing.T) {
	n, m, _, q := rig(t)
	var f packet.Factory
	p := mk(&f)
	p.IP.NextHop = 9
	n.Send(p)
	if q.Len() != 1 || m.pokes != 1 {
		t.Fatalf("queue=%d pokes=%d", q.Len(), m.pokes)
	}
}

func TestSendWithoutNextHopPanics(t *testing.T) {
	n, _, _, _ := rig(t)
	var f packet.Factory
	defer func() {
		if recover() == nil {
			t.Fatal("Send without next hop did not panic")
		}
	}()
	n.Send(mk(&f))
}

func TestSendCountsIfqDrops(t *testing.T) {
	n, m, _, _ := rig(t) // capacity 2
	var f packet.Factory
	for i := 0; i < 3; i++ {
		p := mk(&f)
		p.IP.NextHop = 9
		n.Send(p)
	}
	if n.Stats().IfqDropped != 1 {
		t.Fatalf("IfqDropped = %d, want 1", n.Stats().IfqDropped)
	}
	if m.pokes != 2 {
		t.Fatalf("pokes = %d: a dropped packet must not poke the MAC", m.pokes)
	}
}

func TestDeliverLocally(t *testing.T) {
	n, _, _, _ := rig(t)
	h := &fakePort{}
	n.BindPort(80, h)
	var f packet.Factory
	p := mk(&f)
	p.IP.DstPort = 80
	n.DeliverLocally(p)
	if len(h.got) != 1 || n.Stats().Delivered != 1 {
		t.Fatal("port handler not invoked")
	}
	// Unbound port: counted, not crashed.
	p2 := mk(&f)
	p2.IP.DstPort = 81
	n.DeliverLocally(p2)
	if n.Stats().NoPort != 1 {
		t.Fatalf("NoPort = %d", n.Stats().NoPort)
	}
}

func TestBindPortDuplicatePanics(t *testing.T) {
	n, _, _, _ := rig(t)
	n.BindPort(80, &fakePort{})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate bind did not panic")
		}
	}()
	n.BindPort(80, &fakePort{})
}

func TestMacUpcallsForwardToRouting(t *testing.T) {
	n, _, r, _ := rig(t)
	var f packet.Factory
	p := mk(&f)
	n.RecvFromMac(p)
	if len(r.incoming) != 1 || r.incoming[0] != p {
		t.Fatal("incoming not forwarded to routing")
	}
	n.MacTxDone(p, false)
	if len(r.txDone) != 1 || r.txDone[0] {
		t.Fatal("MacTxDone not relayed")
	}
}

func TestID(t *testing.T) {
	if New(3, &packet.Factory{}).ID() != 3 {
		t.Fatal("ID wrong")
	}
}
