package scenario

import (
	"fmt"

	"vanetsim/internal/app"
	"vanetsim/internal/geom"
	"vanetsim/internal/jammer"
	"vanetsim/internal/mactdma"
	"vanetsim/internal/metrics"
	"vanetsim/internal/mobility"
	"vanetsim/internal/packet"
	"vanetsim/internal/phy"
	"vanetsim/internal/sim"
)

// JammingConfig sets up the denial-of-service experiment the paper's
// §III.E discussion motivates: a stopped platoon exchanging EBL status
// datagrams while an attacker floods the radio channel. Status messages
// ride UDP here (no retransmission), so the delivery ratio measures the
// MAC's resilience directly.
type JammingConfig struct {
	MAC         MACType
	HopChannels int // >1 enables TDMA FHSS over this many channels
	HopSeed     uint64
	Jam         jammer.Config
	JammerDistM float64 // attacker's distance from the platoon lead
	Vehicles    int
	SpacingM    float64
	PacketSize  int
	RateBps     float64 // offered datagram rate per flow
	TDMARateBps float64
	Duration    sim.Time
	Seed        uint64
	Telemetry   bool // collect a cross-layer metrics snapshot
	Check       bool // arm the runtime invariant checker (observation-only)
	Spans       bool // arm causal span tracing (observation-only)
}

// DefaultJamming returns a 3-vehicle, 60-second attack run: 1,000-byte
// status datagrams at 100 kb/s per flow, attacker 30 m away flooding
// channel 0 continuously from t = 10 s.
func DefaultJamming(mac MACType) JammingConfig {
	jam := jammer.DefaultConfig()
	jam.StartAt = 10
	return JammingConfig{
		MAC:         mac,
		Jam:         jam,
		JammerDistM: 30,
		Vehicles:    3,
		SpacingM:    25,
		PacketSize:  1000,
		RateBps:     1e5,
		TDMARateBps: 1e6,
		Duration:    60,
		Seed:        1,
	}
}

// JamFlowResult is one lead-to-follower flow's outcome under attack.
type JamFlowResult struct {
	Receiver packet.NodeID
	Sent     int
	Received int
	// DeliveryRatio is Received/Sent over the whole run (attack included).
	DeliveryRatio float64
	Delays        *metrics.DelaySeries
}

// JammingResult is a completed attack run.
type JammingResult struct {
	Config JammingConfig
	World  *World
	Jammer *jammer.Jammer
	Flows  []JamFlowResult
	// OverallDelivery is the total received/sent ratio across flows.
	OverallDelivery float64
	Observations
}

// RunJamming executes the experiment. It returns an error when the attack
// configuration is invalid (see jammer.New).
func RunJamming(cfg JammingConfig) (*JammingResult, error) {
	if cfg.Vehicles < 2 {
		return nil, fmt.Errorf("scenario: jamming run needs at least two vehicles, got %d", cfg.Vehicles)
	}
	stack := DefaultStackConfig(cfg.MAC)
	if cfg.TDMARateBps > 0 {
		stack.TDMA.DataRateBps = cfg.TDMARateBps
	}
	stack.Telemetry, stack.Check, stack.Spans = cfg.Telemetry, cfg.Check, cfg.Spans
	w := NewWorld(stack, cfg.Seed)
	s := w.Sched
	if cfg.MAC == MACTDMA && cfg.HopChannels > 1 {
		w.TDMASchedule().SetHopping(mactdma.Hopping{Channels: cfg.HopChannels, Seed: cfg.HopSeed})
	}

	// Stopped platoon along +x, lead at the origin.
	p := mobility.NewPlatoon(s, 0, cfg.Vehicles, geom.V(0, 0), geom.V(1, 0), cfg.SpacingM)
	type flowEnd struct {
		src    *app.UDPSource
		sink   *app.UDPSink
		delays *metrics.DelaySeries
		rcv    packet.NodeID
	}
	leadNode := w.AddVehicleNode(p.Lead())
	flows := make([]*flowEnd, 0, cfg.Vehicles-1)
	for i, f := range p.Followers() {
		n := w.AddVehicleNode(f)
		port := 3000 + 2*i
		fe := &flowEnd{
			src:    app.NewUDPSource(s, leadNode.Net, w.PF, port, f.ID(), port+1, packet.TypeEBL),
			sink:   w.AddUDPSink(n, port+1),
			delays: &metrics.DelaySeries{},
			rcv:    f.ID(),
		}
		seq := 0
		fe.sink.OnRecv(func(pkt *packet.Packet, at sim.Time) {
			seq++
			fe.delays.Add(seq, at-pkt.SentAt)
		})
		flows = append(flows, fe)
	}

	// CBR datagram generators for each flow.
	for _, fe := range flows {
		app.NewCBR(s, fe.src, cfg.PacketSize, cfg.RateBps).Start()
	}

	// The attacker: a bare radio off to the side of the road, no stack.
	jamID := packet.NodeID(cfg.Vehicles)
	jpos := geom.V(0, cfg.JammerDistM)
	jradio := phy.NewRadio(jamID, s, func() geom.Vec2 { return jpos }, stack.Radio)
	w.Channel.Attach(jradio)
	j, err := jammer.New(jamID, s, jradio, w.PF, cfg.Jam)
	if err != nil {
		return nil, err
	}

	s.RunUntil(cfg.Duration)

	res := &JammingResult{Config: cfg, World: w, Jammer: j}
	totalSent, totalRecv := 0, 0
	for _, fe := range flows {
		fr := JamFlowResult{
			Receiver: fe.rcv,
			Sent:     fe.src.Sent(),
			Received: fe.sink.Received(),
			Delays:   fe.delays,
		}
		if fr.Sent > 0 {
			fr.DeliveryRatio = float64(fr.Received) / float64(fr.Sent)
		}
		totalSent += fr.Sent
		totalRecv += fr.Received
		res.Flows = append(res.Flows, fr)
	}
	if totalSent > 0 {
		res.OverallDelivery = float64(totalRecv) / float64(totalSent)
	}
	res.Observations = w.Finish()
	return res, nil
}
