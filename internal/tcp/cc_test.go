package tcp_test

import (
	"math"
	"testing"

	"vanetsim/internal/netlayer"
	"vanetsim/internal/packet"
	"vanetsim/internal/queue"
	"vanetsim/internal/sim"
	"vanetsim/internal/tcp"
)

// scriptNet is a loopback "network" with a fixed one-way delay and a
// scripted set of first-transmission drops, for deterministic
// congestion-control unit tests. Sender and sink share one node; routing
// is by destination port.
type scriptNet struct {
	s     *sim.Scheduler
	net   *netlayer.Net
	delay sim.Time

	dropFirstTx map[int]bool // data seqs whose first transmission is lost
	dropped     map[int]bool
	delivered   int
}

type idleMAC struct{}

func (idleMAC) ID() packet.NodeID { return 1 }
func (idleMAC) Poke()             {}

func newScriptNet(s *sim.Scheduler, pf *packet.Factory, delay sim.Time) *scriptNet {
	n := netlayer.New(1, pf)
	n.Attach(queue.NewDropTail(64, nil), idleMAC{})
	sn := &scriptNet{
		s:           s,
		net:         n,
		delay:       delay,
		dropFirstTx: make(map[int]bool),
		dropped:     make(map[int]bool),
	}
	n.SetRouting(sn)
	return sn
}

// HandleOutgoing implements netlayer.Routing: deliver locally after the
// scripted delay, unless dropped.
func (sn *scriptNet) HandleOutgoing(p *packet.Packet) {
	if p.Type == packet.TypeTCP && p.TCP != nil && sn.dropFirstTx[p.TCP.Seq] && !sn.dropped[p.TCP.Seq] {
		sn.dropped[p.TCP.Seq] = true
		return
	}
	sn.delivered++
	cp := p
	sn.s.Schedule(sn.delay, func() { sn.net.DeliverLocally(cp) })
}

func (sn *scriptNet) HandleIncoming(p *packet.Packet) { sn.net.DeliverLocally(p) }
func (sn *scriptNet) MacTxDone(*packet.Packet, bool)  {}

// ccRig wires a sender and sink over a scripted loopback.
func ccRig(t *testing.T, cfg tcp.Config, delay sim.Time) (*sim.Scheduler, *scriptNet, *tcp.Sender, *tcp.Sink) {
	t.Helper()
	s := sim.New()
	pf := &packet.Factory{}
	sn := newScriptNet(s, pf, delay)
	snd := tcp.NewSender(s, sn.net, pf, 100, 1, 200, cfg)
	snk := tcp.NewSink(s, sn.net, pf, 200, cfg)
	return s, sn, snd, snk
}

func TestSlowStartDoublesPerRTT(t *testing.T) {
	cfg := tcp.DefaultConfig()
	cfg.MaxCwnd = 64
	s, _, snd, _ := ccRig(t, cfg, 50*sim.Millisecond) // RTT = 100 ms
	snd.SendBytes(1000 * cfg.SegmentSize)
	// cwnd: 1 at t=0; each delivered ACK adds 1, so it doubles per RTT
	// until ssthresh.
	s.RunUntil(0.05) // first segment in flight
	if snd.Cwnd() != 1 {
		t.Fatalf("cwnd before first ACK = %v", snd.Cwnd())
	}
	s.RunUntil(0.101) // first ACK arrived
	if snd.Cwnd() != 2 {
		t.Fatalf("cwnd after first ACK = %v, want 2", snd.Cwnd())
	}
	s.RunUntil(0.201)
	if snd.Cwnd() != 4 {
		t.Fatalf("cwnd after 2 RTTs = %v, want 4", snd.Cwnd())
	}
	s.RunUntil(0.301)
	if snd.Cwnd() != 8 {
		t.Fatalf("cwnd after 3 RTTs = %v, want 8", snd.Cwnd())
	}
}

func TestCongestionAvoidanceLinearGrowth(t *testing.T) {
	cfg := tcp.DefaultConfig()
	cfg.InitialSSThresh = 4
	cfg.MaxCwnd = 1000
	s, _, snd, _ := ccRig(t, cfg, 50*sim.Millisecond)
	snd.SendBytes(1000 * cfg.SegmentSize)
	s.RunUntil(0.301) // past slow start (ssthresh 4)
	c1 := snd.Cwnd()
	s.RunUntil(0.401) // one more RTT
	c2 := snd.Cwnd()
	if c2-c1 > 1.5 || c2-c1 < 0.5 {
		t.Fatalf("congestion avoidance grew %v per RTT, want ~1", c2-c1)
	}
}

func TestFastRetransmitRecoversSingleLoss(t *testing.T) {
	for _, variant := range []tcp.Variant{tcp.VariantReno, tcp.VariantTahoe} {
		cfg := tcp.DefaultConfig()
		cfg.Variant = variant
		s, sn, snd, snk := ccRig(t, cfg, 10*sim.Millisecond)
		sn.dropFirstTx[8] = true // lose segment 8's first transmission
		const n = 60
		snd.SendBytes(n * cfg.SegmentSize)
		s.RunUntil(30)
		if snk.Bytes() != n*cfg.SegmentSize {
			t.Fatalf("%v: transfer incomplete: %d bytes", variant, snk.Bytes())
		}
		st := snd.Stats()
		if st.FastRetransmits != 1 {
			t.Fatalf("%v: fast retransmits = %d, want 1", variant, st.FastRetransmits)
		}
		if st.Timeouts != 0 {
			t.Fatalf("%v: loss should be repaired without an RTO (timeouts=%d)", variant, st.Timeouts)
		}
	}
}

func TestTahoeCollapsesRenoDoesNot(t *testing.T) {
	run := func(variant tcp.Variant) (minCwndAfterLoss float64) {
		cfg := tcp.DefaultConfig()
		cfg.Variant = variant
		s, sn, snd, _ := ccRig(t, cfg, 10*sim.Millisecond)
		sn.dropFirstTx[12] = true
		snd.SendBytes(200 * cfg.SegmentSize)
		minCwndAfterLoss = math.Inf(1)
		sawLoss := false
		for s.Step() {
			if snd.Stats().FastRetransmits > 0 {
				sawLoss = true
			}
			if sawLoss && snd.Cwnd() < minCwndAfterLoss {
				minCwndAfterLoss = snd.Cwnd()
			}
			if s.Now() > 20 {
				break
			}
		}
		return minCwndAfterLoss
	}
	tahoe := run(tcp.VariantTahoe)
	reno := run(tcp.VariantReno)
	if tahoe != 1 {
		t.Fatalf("Tahoe min cwnd after loss = %v, want 1 (slow-start restart)", tahoe)
	}
	if reno < 2 {
		t.Fatalf("Reno min cwnd after loss = %v, want >= ssthresh (fast recovery)", reno)
	}
}

func TestRTOFiresWhenAllRetransmitsFail(t *testing.T) {
	cfg := tcp.DefaultConfig()
	s, sn, snd, snk := ccRig(t, cfg, 10*sim.Millisecond)
	// Lose segment 1's first transmission with nothing else in flight:
	// no duplicate ACKs can arrive, so only the RTO can repair it.
	sn.dropFirstTx[1] = true
	snd.SendBytes(cfg.SegmentSize)
	s.RunUntil(30)
	if snk.Bytes() != cfg.SegmentSize {
		t.Fatal("transfer incomplete")
	}
	st := snd.Stats()
	if st.Timeouts != 1 || st.FastRetransmits != 0 {
		t.Fatalf("want exactly one RTO and no fast retransmit: %+v", st)
	}
}

func TestRTTEstimateTracksPathDelay(t *testing.T) {
	cfg := tcp.DefaultConfig()
	s, _, snd, snk := ccRig(t, cfg, 100*sim.Millisecond) // RTT 200 ms
	snd.SendBytes(50 * cfg.SegmentSize)
	s.RunUntil(30)
	if snk.Bytes() != 50*cfg.SegmentSize {
		t.Fatal("transfer incomplete")
	}
	// No loss happened, so the RTO must never have fired even though the
	// 200 ms RTT equals MinRTO — the estimator must have adapted.
	if snd.Stats().Timeouts != 0 {
		t.Fatalf("spurious timeouts with constant 200 ms RTT: %+v", snd.Stats())
	}
}

func TestDuplicateAcksIgnoredWithNothingOutstanding(t *testing.T) {
	cfg := tcp.DefaultConfig()
	s, _, snd, _ := ccRig(t, cfg, 10*sim.Millisecond)
	snd.SendBytes(cfg.SegmentSize)
	s.RunUntil(5)
	// Inject stray duplicate ACKs; they must not trigger retransmission.
	for i := 0; i < 5; i++ {
		pf := &packet.Factory{}
		a := pf.New(packet.TypeAck, cfg.AckBytes, s.Now())
		a.IP = packet.IPHdr{Src: 1, Dst: 1, SrcPort: 200, DstPort: 100}
		a.TCP = &packet.TCPHdr{Seq: 1}
		snd.RecvFromNet(a)
	}
	if snd.Stats().Retransmits != 0 {
		t.Fatal("stray duplicate ACKs caused retransmission with empty pipe")
	}
}
