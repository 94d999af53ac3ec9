package mac80211

import (
	"testing"

	"vanetsim/internal/geom"
	"vanetsim/internal/packet"
	"vanetsim/internal/phy"
	"vanetsim/internal/queue"
	"vanetsim/internal/sim"
)

// hiddenParams narrows carrier sense to the receive range so two senders
// 400 m apart are genuinely hidden from each other while both reach a
// receiver in the middle.
func hiddenParams() phy.RadioParams {
	p := phy.DefaultRadioParams()
	p.CSThreshW = p.RxThreshW
	return p
}

// hiddenRig builds A(0) - B(200) - C(400) with the narrowed carrier sense.
func hiddenRig(t *testing.T, cfg Config) (*sim.Scheduler, []*node, *packet.Factory) {
	t.Helper()
	s := sim.New()
	pf := &packet.Factory{}
	ch := phy.NewChannel(s, phy.DefaultPropagation(), pf)
	rng := sim.NewRNG(77)
	xs := []float64{0, 200, 400}
	nodes := make([]*node, len(xs))
	for i, x := range xs {
		x := x
		r := phy.NewRadio(packet.NodeID(i), s, func() geom.Vec2 { return geom.V(x, 0) }, hiddenParams())
		ch.Attach(r)
		up := &upRecorder{}
		ifq := queue.NewDropTail(50, nil)
		m := New(packet.NodeID(i), s, r, ifq, up, pf, rng.Fork(string(rune('a'+i))), cfg)
		nodes[i] = &node{mac: m, ifq: ifq, up: up}
	}
	return s, nodes, pf
}

func TestRTSCTSBasicExchange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RTSThresholdBytes = 1 // RTS for everything
	s, nodes, f := rig(t, 2, cfg)
	p := send(f, nodes[0], 1, 1000)
	s.RunUntil(0.1)
	if len(nodes[1].up.received) != 1 || nodes[1].up.received[0].UID != p.UID {
		t.Fatal("data not delivered through RTS/CTS exchange")
	}
	st0, st1 := nodes[0].mac.Stats(), nodes[1].mac.Stats()
	if st0.TxRTS != 1 || st1.TxCTS != 1 {
		t.Fatalf("control exchange incomplete: RTS=%d CTS=%d", st0.TxRTS, st1.TxCTS)
	}
	if st0.TxData != 1 || st1.TxAck != 1 {
		t.Fatalf("data/ack incomplete: %+v %+v", st0, st1)
	}
	if len(nodes[0].up.done) != 1 || !nodes[0].up.doneOK[0] {
		t.Fatal("sender should complete successfully")
	}
}

func TestRTSThresholdSelectivity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RTSThresholdBytes = 800
	s, nodes, f := rig(t, 2, cfg)
	send(f, nodes[0], 1, 500) // below threshold: no RTS
	s.RunUntil(0.05)
	if nodes[0].mac.Stats().TxRTS != 0 {
		t.Fatal("small frame should not use RTS")
	}
	send(f, nodes[0], 1, 1000) // above: RTS
	s.RunUntil(0.1)
	if nodes[0].mac.Stats().TxRTS != 1 {
		t.Fatal("large frame should use RTS")
	}
	if len(nodes[1].up.received) != 2 {
		t.Fatalf("delivered %d/2", len(nodes[1].up.received))
	}
}

func TestRTSBroadcastNeverUsesRTS(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RTSThresholdBytes = 1
	s, nodes, f := rig(t, 3, cfg)
	send(f, nodes[0], packet.Broadcast, 1000)
	s.RunUntil(0.1)
	if nodes[0].mac.Stats().TxRTS != 0 {
		t.Fatal("broadcast must bypass RTS/CTS")
	}
	if len(nodes[1].up.received) != 1 || len(nodes[2].up.received) != 1 {
		t.Fatal("broadcast not delivered")
	}
}

func TestRTSNoCTSRetriesAndDrops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RTSThresholdBytes = 1
	s, nodes, f := rig(t, 2, cfg)
	send(f, nodes[0], 42, 1000) // nobody answers
	s.RunUntil(1)
	st := nodes[0].mac.Stats()
	if st.TxRTS != cfg.RetryLimit+1 {
		t.Fatalf("RTS attempts = %d, want RetryLimit+1", st.TxRTS)
	}
	if st.TxData != 0 {
		t.Fatal("data must never be sent without a CTS")
	}
	if len(nodes[0].up.done) != 1 || nodes[0].up.doneOK[0] {
		t.Fatal("sender should report link failure")
	}
}

// The hidden-terminal experiment: A and C cannot hear each other but both
// reach B. Without RTS/CTS their data frames collide at B constantly;
// with it, the CTS from B silences the other sender for the exchange.
func TestHiddenTerminalRTSCTSHelps(t *testing.T) {
	deliver := func(useRTS bool) (delivered int, collided int) {
		cfg := DefaultConfig()
		if useRTS {
			cfg.RTSThresholdBytes = 1
		}
		s, nodes, f := hiddenRig(t, cfg)
		const n = 40
		for i := 0; i < n; i++ {
			send(f, nodes[0], 1, 1000)
			send(f, nodes[2], 1, 1000)
		}
		s.RunUntil(3)
		return len(nodes[1].up.received), nodes[1].mac.Stats().RxCorrupted
	}
	gotPlain, collPlain := deliver(false)
	gotRTS, collRTS := deliver(true)
	if collPlain == 0 {
		t.Fatal("hidden terminals should collide without RTS/CTS")
	}
	if gotRTS <= gotPlain {
		t.Fatalf("RTS/CTS should improve hidden-terminal delivery: %d vs %d", gotRTS, gotPlain)
	}
	if collRTS >= collPlain {
		t.Fatalf("RTS/CTS should reduce data collisions: %d vs %d", collRTS, collPlain)
	}
}
