package app

import (
	"testing"

	"vanetsim/internal/netlayer"
	"vanetsim/internal/packet"
	"vanetsim/internal/queue"
	"vanetsim/internal/sim"
)

// loopRouting short-circuits routing: outgoing packets addressed to the
// local node are delivered straight up (enough to exercise the agents).
type loopRouting struct {
	n    *netlayer.Net
	sent []*packet.Packet
}

func (r *loopRouting) HandleOutgoing(p *packet.Packet) {
	r.sent = append(r.sent, p)
	if p.IP.Dst == r.n.ID() {
		r.n.DeliverLocally(p)
	}
}
func (r *loopRouting) HandleIncoming(p *packet.Packet) { r.n.DeliverLocally(p) }
func (r *loopRouting) MacTxDone(*packet.Packet, bool)  {}

type idleMAC struct{}

func (idleMAC) ID() packet.NodeID { return 1 }
func (idleMAC) Poke()             {}

func udpRig(t *testing.T) (*sim.Scheduler, *netlayer.Net, *loopRouting, *packet.Factory) {
	t.Helper()
	s := sim.New()
	pf := &packet.Factory{}
	n := netlayer.New(1, pf)
	n.Attach(queue.NewDropTail(8, nil), idleMAC{})
	r := &loopRouting{n: n}
	n.SetRouting(r)
	return s, n, r, pf
}

func TestUDPSourceSendsDatagrams(t *testing.T) {
	s, n, r, pf := udpRig(t)
	src := NewUDPSource(s, n, pf, 10, 1, 20, packet.TypeEBL)
	sink := NewUDPSink(s, n, 20)
	var p packet.Packet
	sink.OnRecv(func(got *packet.Packet, _ sim.Time) { p = *got })
	src.Send(500, nil)
	if p.Size != 500+UDPHdrBytes {
		t.Fatalf("wire size = %d, want payload + UDP/IP headers", p.Size)
	}
	if p.Type != packet.TypeEBL || p.IP.DstPort != 20 || p.IP.SrcPort != 10 {
		t.Fatalf("datagram misaddressed: %+v", p)
	}
	if src.Sent() != 1 || len(r.sent) != 1 {
		t.Fatal("send not accounted")
	}
	if sink.Received() != 1 || sink.Bytes() != 500 {
		t.Fatalf("sink got %d datagrams / %d bytes", sink.Received(), sink.Bytes())
	}
}

func TestUDPSourceSendBytesAdapter(t *testing.T) {
	s, n, _, pf := udpRig(t)
	src := NewUDPSource(s, n, pf, 10, 1, 20, packet.TypeCBR)
	sink := NewUDPSink(s, n, 20)
	var st ByteSender = src // the CBR attachment point
	st.SendBytes(250)
	if sink.Bytes() != 250 {
		t.Fatalf("sink bytes = %d", sink.Bytes())
	}
}

func TestUDPSinkObserver(t *testing.T) {
	s, n, _, pf := udpRig(t)
	src := NewUDPSource(s, n, pf, 10, 1, 20, packet.TypeCBR)
	sink := NewUDPSink(s, n, 20)
	var got []uint64
	var at sim.Time
	sink.OnRecv(func(p *packet.Packet, t sim.Time) {
		got = append(got, p.UID)
		at = t
	})
	src.Send(100, nil)
	if len(got) != 1 || got[0] != pf.Allocated() {
		t.Fatal("observer not invoked with the datagram")
	}
	if at != s.Now() {
		t.Fatal("observer timestamp wrong")
	}
}

func TestUDPSourceAbsorbsReturnTraffic(t *testing.T) {
	// Anything addressed back at the source's port must be swallowed
	// without a bound-handler panic.
	s, n, _, pf := udpRig(t)
	NewUDPSource(s, n, pf, 10, 1, 20, packet.TypeCBR)
	p := pf.New(packet.TypeCBR, 100, 0)
	p.IP.Dst = 1
	p.IP.DstPort = 10
	n.DeliverLocally(p)
	if got := n.Stats().NoPort; got != 0 {
		t.Fatalf("NoPort = %d; source port should be bound", got)
	}
}

func TestCBROverUDPEndToEnd(t *testing.T) {
	s, n, _, pf := udpRig(t)
	src := NewUDPSource(s, n, pf, 10, 1, 20, packet.TypeCBR)
	sink := NewUDPSink(s, n, 20)
	c := NewCBR(s, src, 200, 1.6e5) // 200 B every 10 ms
	c.Start()
	s.RunUntil(0.1)
	c.Stop()
	if sink.Received() != 11 { // t = 0..100 ms inclusive
		t.Fatalf("received %d datagrams, want 11", sink.Received())
	}
}
