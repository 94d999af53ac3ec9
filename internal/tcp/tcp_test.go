package tcp_test

import (
	"math"
	"testing"

	"vanetsim/internal/app"
	"vanetsim/internal/geom"
	"vanetsim/internal/packet"
	"vanetsim/internal/phy"
	"vanetsim/internal/scenario"
	"vanetsim/internal/sim"
	"vanetsim/internal/tcp"
)

func fixed(x, y float64) phy.PositionFn {
	return func() geom.Vec2 { return geom.V(x, y) }
}

// pair builds a two-node 802.11 world with a TCP flow 0 -> 1.
func pair(t *testing.T, cfg tcp.Config) (*scenario.World, *tcp.Sender, *tcp.Sink) {
	t.Helper()
	w := scenario.NewWorld(scenario.DefaultStackConfig(scenario.MAC80211), 99)
	w.AddNode(0, fixed(0, 0))
	w.AddNode(1, fixed(100, 0))
	snd := tcp.NewSender(w.Sched, w.Nodes[0].Net, w.PF, 100, 1, 200, cfg)
	snk := tcp.NewSink(w.Sched, w.Nodes[1].Net, w.PF, 200, cfg)
	return w, snd, snk
}

func TestSingleSegmentTransfer(t *testing.T) {
	cfg := tcp.DefaultConfig()
	w, snd, snk := pair(t, cfg)
	snd.SendBytes(cfg.SegmentSize)
	w.Sched.RunUntil(2)
	if snk.Bytes() != cfg.SegmentSize {
		t.Fatalf("sink bytes = %d, want %d", snk.Bytes(), cfg.SegmentSize)
	}
	st := snd.Stats()
	if st.SegmentsSent != 1 || st.Retransmits != 0 || st.Timeouts != 0 {
		t.Fatalf("clean transfer stats: %+v", st)
	}
	if snd.Outstanding() != 0 {
		t.Fatal("segment still outstanding after ACK")
	}
}

func TestBulkTransferInOrderComplete(t *testing.T) {
	cfg := tcp.DefaultConfig()
	w, snd, snk := pair(t, cfg)
	const n = 200
	var seqs []int
	var lastDelivery sim.Time
	snk.OnRecv(func(p *packet.Packet, at sim.Time, _ bool) {
		seqs = append(seqs, p.TCP.Seq)
		lastDelivery = at
	})
	snd.SendBytes(n * cfg.SegmentSize)
	w.Sched.RunUntil(60)
	if snk.Bytes() != n*cfg.SegmentSize {
		t.Fatalf("sink bytes = %d, want %d", snk.Bytes(), n*cfg.SegmentSize)
	}
	// Over a clean one-hop link the stream arrives strictly in order.
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("out-of-order arrival at %d: %d after %d", i, seqs[i], seqs[i-1])
		}
	}
	if lastDelivery == 0 {
		t.Fatal("no deliveries observed")
	}
}

func TestCwndGrowsInSlowStart(t *testing.T) {
	cfg := tcp.DefaultConfig()
	w, snd, _ := pair(t, cfg)
	if snd.Cwnd() != 1 {
		t.Fatalf("initial cwnd = %v, want 1", snd.Cwnd())
	}
	snd.SendBytes(50 * cfg.SegmentSize)
	w.Sched.RunUntil(5)
	if snd.Cwnd() != cfg.MaxCwnd {
		t.Fatalf("cwnd = %v after clean bulk transfer, want cap %v", snd.Cwnd(), cfg.MaxCwnd)
	}
}

func TestWindowLimitsOutstanding(t *testing.T) {
	cfg := tcp.DefaultConfig()
	w, snd, _ := pair(t, cfg)
	snd.SendBytes(100 * cfg.SegmentSize)
	// At every step, in-flight segments never exceed the window cap.
	for i := 0; i < 200000 && w.Sched.Step(); i++ {
		if float64(snd.Outstanding()) > cfg.MaxCwnd {
			t.Fatalf("outstanding %d exceeds max window %v", snd.Outstanding(), cfg.MaxCwnd)
		}
	}
}

func TestRetransmissionOnLoss(t *testing.T) {
	// Two hops with an intermediate: contention and ifq pressure are not
	// enough to force loss here, so instead make the sink unreachable for
	// a while by dropping the route — simplest honest loss is a dead
	// receiver that comes back.
	cfg := tcp.DefaultConfig()
	w := scenario.NewWorld(scenario.DefaultStackConfig(scenario.MAC80211), 5)
	w.AddNode(0, fixed(0, 0))
	pos := geom.V(100, 0)
	w.AddNode(1, func() geom.Vec2 { return pos })
	snd := tcp.NewSender(w.Sched, w.Nodes[0].Net, w.PF, 100, 1, 200, cfg)
	snk := tcp.NewSink(w.Sched, w.Nodes[1].Net, w.PF, 200, cfg)
	snd.SendBytes(5 * cfg.SegmentSize)
	w.Sched.RunUntil(1)
	if snk.Bytes() != 5*cfg.SegmentSize {
		t.Fatal("setup transfer failed")
	}
	// Receiver vanishes mid-transfer, then returns.
	pos = geom.V(5000, 0)
	snd.SendBytes(5 * cfg.SegmentSize)
	w.Sched.RunUntil(3)
	pos = geom.V(100, 0)
	w.Sched.RunUntil(60)
	if snk.Bytes() != 10*cfg.SegmentSize {
		t.Fatalf("sink bytes = %d, want %d after recovery", snk.Bytes(), 10*cfg.SegmentSize)
	}
	if snd.Stats().Retransmits == 0 && snd.Stats().Timeouts == 0 {
		t.Fatal("outage must have forced loss recovery")
	}
}

func TestReceiverDeliversExactlyOnceInOrder(t *testing.T) {
	// Even with retransmissions (from the outage scenario above), the
	// cumulative byte count must never double-count a segment.
	cfg := tcp.DefaultConfig()
	w := scenario.NewWorld(scenario.DefaultStackConfig(scenario.MAC80211), 5)
	w.AddNode(0, fixed(0, 0))
	pos := geom.V(100, 0)
	w.AddNode(1, func() geom.Vec2 { return pos })
	snd := tcp.NewSender(w.Sched, w.Nodes[0].Net, w.PF, 100, 1, 200, cfg)
	snk := tcp.NewSink(w.Sched, w.Nodes[1].Net, w.PF, 200, cfg)
	const n = 30
	snd.SendBytes(n * cfg.SegmentSize)
	w.Sched.RunUntil(0.3)
	pos = geom.V(5000, 0)
	w.Sched.RunUntil(1.5)
	pos = geom.V(100, 0)
	w.Sched.RunUntil(120)
	if snk.Bytes() != n*cfg.SegmentSize {
		t.Fatalf("sink bytes = %d, want exactly %d", snk.Bytes(), n*cfg.SegmentSize)
	}
}

func TestOneWayDelayStampSurvivesRetransmit(t *testing.T) {
	// A retransmitted segment must carry its first-transmission time so
	// the paper's one-way delay includes recovery latency.
	cfg := tcp.DefaultConfig()
	w := scenario.NewWorld(scenario.DefaultStackConfig(scenario.MAC80211), 5)
	w.AddNode(0, fixed(0, 0))
	pos := geom.V(5000, 0) // out of range from the start
	w.AddNode(1, func() geom.Vec2 { return pos })
	snd := tcp.NewSender(w.Sched, w.Nodes[0].Net, w.PF, 100, 1, 200, cfg)
	snk := tcp.NewSink(w.Sched, w.Nodes[1].Net, w.PF, 200, cfg)
	var delays []sim.Time
	snk.OnRecv(func(p *packet.Packet, at sim.Time, _ bool) {
		delays = append(delays, at-p.SentAt)
	})
	snd.SendBytes(cfg.SegmentSize)
	w.Sched.RunUntil(10)
	pos = geom.V(100, 0) // now reachable; a retransmission delivers it
	w.Sched.RunUntil(120)
	if len(delays) == 0 {
		t.Fatal("segment never delivered")
	}
	if delays[0] < 5 {
		t.Fatalf("one-way delay %v too small: retransmission lost its original stamp", delays[0])
	}
}

func TestCBROverTCPPacesBytes(t *testing.T) {
	cfg := tcp.DefaultConfig()
	w, snd, snk := pair(t, cfg)
	const rate = 400_000.0 // 400 kb/s, well under link capacity
	cbr := app.NewCBR(w.Sched, snd, cfg.SegmentSize, rate)
	cbr.Start()
	w.Sched.RunUntil(10)
	cbr.Stop()
	w.Sched.RunUntil(12)
	gotRate := float64(snk.Bytes()) * 8 / 10
	if math.Abs(gotRate-rate)/rate > 0.05 {
		t.Fatalf("delivered rate = %.0f b/s, want ~%.0f", gotRate, rate)
	}
	if cbr.Running() {
		t.Fatal("CBR still running after Stop")
	}
}

func TestFTPGreedySaturates(t *testing.T) {
	cfg := tcp.DefaultConfig()
	w, snd, snk := pair(t, cfg)
	snd.SendBytes(1 << 40) // a greedy, effectively unbounded backlog
	w.Sched.RunUntil(2)
	// 11 Mb/s link, window 20: expect multiple Mb/s of goodput.
	mbps := float64(snk.Bytes()) * 8 / 2 / 1e6
	if mbps < 2 {
		t.Fatalf("FTP goodput = %.2f Mb/s, want > 2", mbps)
	}
}

func TestSinkCountsDuplicates(t *testing.T) {
	cfg := tcp.DefaultConfig()
	w := scenario.NewWorld(scenario.DefaultStackConfig(scenario.MAC80211), 5)
	w.AddNode(0, fixed(0, 0))
	w.AddNode(1, fixed(100, 0))
	snk := tcp.NewSink(w.Sched, w.Nodes[1].Net, w.PF, 200, cfg)
	// Hand-deliver the same segment twice.
	mk := func() *packet.Packet {
		p := w.PF.New(packet.TypeTCP, cfg.SegmentSize+cfg.HdrBytes, 0)
		p.IP = packet.IPHdr{Src: 0, Dst: 1, SrcPort: 100, DstPort: 200}
		p.TCP = &packet.TCPHdr{Seq: 1}
		return p
	}
	snk.RecvFromNet(mk())
	snk.RecvFromNet(mk())
	if snk.Stats().Duplicates != 1 {
		t.Fatalf("Duplicates = %d, want 1", snk.Stats().Duplicates)
	}
	if snk.Bytes() != cfg.SegmentSize {
		t.Fatalf("bytes double-counted: %d", snk.Bytes())
	}
	if snk.Stats().AcksSent != 2 {
		t.Fatal("every arrival must be acknowledged")
	}
}

func TestSinkBuffersOutOfOrder(t *testing.T) {
	cfg := tcp.DefaultConfig()
	w := scenario.NewWorld(scenario.DefaultStackConfig(scenario.MAC80211), 5)
	w.AddNode(0, fixed(0, 0))
	w.AddNode(1, fixed(100, 0))
	snk := tcp.NewSink(w.Sched, w.Nodes[1].Net, w.PF, 200, cfg)
	mk := func(seq int) *packet.Packet {
		p := w.PF.New(packet.TypeTCP, cfg.SegmentSize+cfg.HdrBytes, 0)
		p.IP = packet.IPHdr{Src: 0, Dst: 1, SrcPort: 100, DstPort: 200}
		p.TCP = &packet.TCPHdr{Seq: seq}
		return p
	}
	snk.RecvFromNet(mk(2)) // hole at 1
	snk.RecvFromNet(mk(3))
	if snk.Stats().OutOfOrder != 2 {
		t.Fatalf("OutOfOrder = %d, want 2", snk.Stats().OutOfOrder)
	}
	snk.RecvFromNet(mk(1)) // fills the hole; cumulative point jumps to 3
	if snk.Bytes() != 3*cfg.SegmentSize {
		t.Fatalf("bytes = %d, want 3 segments", snk.Bytes())
	}
}

func TestSenderPanicsOnBadConfig(t *testing.T) {
	w := scenario.NewWorld(scenario.DefaultStackConfig(scenario.MAC80211), 5)
	w.AddNode(0, fixed(0, 0))
	cfg := tcp.DefaultConfig()
	cfg.SegmentSize = 0
	defer func() {
		if recover() == nil {
			t.Fatal("zero segment size did not panic")
		}
	}()
	tcp.NewSender(w.Sched, w.Nodes[0].Net, w.PF, 100, 1, 200, cfg)
}

func TestTwoFlowsShareOneNode(t *testing.T) {
	// The paper's platoon: one lead streams to two followers over
	// separate TCP connections sharing one stack.
	cfg := tcp.DefaultConfig()
	w := scenario.NewWorld(scenario.DefaultStackConfig(scenario.MAC80211), 77)
	w.AddNode(0, fixed(0, 0))
	w.AddNode(1, fixed(25, 0))
	w.AddNode(2, fixed(50, 0))
	s1 := tcp.NewSender(w.Sched, w.Nodes[0].Net, w.PF, 101, 1, 200, cfg)
	s2 := tcp.NewSender(w.Sched, w.Nodes[0].Net, w.PF, 102, 2, 200, cfg)
	k1 := tcp.NewSink(w.Sched, w.Nodes[1].Net, w.PF, 200, cfg)
	k2 := tcp.NewSink(w.Sched, w.Nodes[2].Net, w.PF, 200, cfg)
	const n = 50
	s1.SendBytes(n * cfg.SegmentSize)
	s2.SendBytes(n * cfg.SegmentSize)
	w.Sched.RunUntil(30)
	if k1.Bytes() != n*cfg.SegmentSize || k2.Bytes() != n*cfg.SegmentSize {
		t.Fatalf("flows incomplete: %d and %d bytes", k1.Bytes(), k2.Bytes())
	}
}
