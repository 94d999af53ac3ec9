package scenario

import (
	"fmt"

	"vanetsim/internal/ebl"
	"vanetsim/internal/geom"
	"vanetsim/internal/mobility"
	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
)

// HighwayConfig describes the extension scenario the paper's conclusion
// asks for ("a larger and more complex vehicular configuration"): an
// N-vehicle platoon cruising on a highway whose lead vehicle brakes hard.
// Followers brake only after the EBL brake indication reaches them (plus
// driver reaction), so the MAC's notification latency translates directly
// into consumed following distance — and possibly collisions.
type HighwayConfig struct {
	MAC         MACType
	Vehicles    int     // platoon size including the lead
	SpacingM    float64 // following distance
	SpeedMS     float64 // cruise speed
	DecelMS2    float64 // braking deceleration
	CarLengthM  float64 // collision threshold between stopped vehicles
	PacketSize  int
	RateBps     float64
	TDMARateBps float64  // TDMA radio rate override (0 = package default)
	ReactionS   sim.Time // driver reaction after the indication arrives
	BrakeAt     sim.Time // when the lead brakes
	Duration    sim.Time
	QueueCap    int
	Seed        uint64
	Telemetry   bool // collect a cross-layer metrics snapshot
	Check       bool // arm the runtime invariant checker (observation-only)
	Spans       bool // arm causal span tracing (observation-only)
}

// DefaultHighway returns a 50-mph, 25-m-spacing emergency-braking run
// with n vehicles on the given MAC.
func DefaultHighway(mac MACType, n int) HighwayConfig {
	return HighwayConfig{
		MAC:         mac,
		Vehicles:    n,
		SpacingM:    25,
		SpeedMS:     ebl.MPHToMS(50),
		DecelMS2:    6,
		CarLengthM:  4.5,
		PacketSize:  1000,
		RateBps:     1.4e6,
		TDMARateBps: 1e6,
		ReactionS:   0.7,
		BrakeAt:     10,
		Duration:    60,
		QueueCap:    50,
		Seed:        1,
	}
}

// BrakeIndication is one follower's outcome in a highway run.
type BrakeIndication struct {
	Vehicle packet.NodeID
	// IndicationDelay is from the lead's brake event to the first EBL
	// packet arriving at this vehicle.
	IndicationDelay sim.Time
	// DistanceBlind is how far the vehicle travelled between the lead's
	// brake event and its own braking (indication + reaction).
	DistanceBlind float64
	// FinalGap is the bumper-to-bumper distance to the vehicle ahead once
	// everything has stopped.
	FinalGap float64
	// Collided reports whether the vehicle ran into its predecessor.
	Collided bool
}

// HighwayResult is a completed highway emergency-braking run.
type HighwayResult struct {
	Config      HighwayConfig
	World       *World
	Platoon     *mobility.Platoon
	Comms       *ebl.PlatoonComms
	Indications []BrakeIndication
	Collisions  int
	Observations
}

// RunHighway executes the emergency-braking scenario. It returns an error
// on an unrunnable configuration (fewer than two vehicles).
func RunHighway(cfg HighwayConfig) (*HighwayResult, error) {
	if cfg.Vehicles < 2 {
		return nil, fmt.Errorf("scenario: highway needs at least two vehicles, got %d", cfg.Vehicles)
	}
	stack := DefaultStackConfig(cfg.MAC)
	stack.QueueCap = cfg.QueueCap
	if cfg.TDMARateBps > 0 {
		stack.TDMA.DataRateBps = cfg.TDMARateBps
	}
	stack.Telemetry, stack.Check, stack.Spans = cfg.Telemetry, cfg.Check, cfg.Spans
	w := NewWorld(stack, cfg.Seed)
	s := w.Sched

	// Long straight road along +x; start far enough back that the run
	// fits entirely at positive coordinates.
	p := mobility.NewPlatoon(s, 0, cfg.Vehicles, geom.V(float64(cfg.Vehicles)*cfg.SpacingM, 0), geom.V(1, 0), cfg.SpacingM)
	for _, v := range p.Vehicles() {
		w.AddVehicleNode(v)
	}
	p.SetDest(geom.V(1e6, 0), cfg.SpeedMS) // cruise: silent

	c := ebl.DefaultCommsConfig()
	c.PacketSize = cfg.PacketSize
	c.RateBps = cfg.RateBps
	comms := w.AddComms(p, c)

	brakes := newBrakeWatcher(s, cfg.BrakeAt, cfg.ReactionS, cfg.DecelMS2)
	brakes.watch(p, comms)

	s.At(cfg.BrakeAt, func() { p.Lead().Brake(cfg.DecelMS2) })
	s.RunUntil(cfg.Duration)

	res := &HighwayResult{Config: cfg, World: w, Platoon: p, Comms: comms}
	res.Indications = brakes.indications(p, cfg.SpeedMS, cfg.Duration)
	vehicles := p.Vehicles()
	for i := 1; i < len(vehicles); i++ {
		// Signed along-road gap: a follower that overran its predecessor
		// must not read as "far apart" again.
		along := vehicles[i-1].Position().Sub(vehicles[i].Position()).Dot(p.Heading())
		ind := &res.Indications[i-1]
		ind.FinalGap = along - cfg.CarLengthM
		ind.Collided = ind.FinalGap <= 0
		if ind.Collided {
			res.Collisions++
		}
	}
	res.Observations = w.Finish()
	return res, nil
}

// brakeWatcher is the followers' reaction to the EBL brake indication,
// shared by the highway scenarios: a vehicle brakes reaction after the
// first EBL packet that reaches it at or after brakeAt.
type brakeWatcher struct {
	sched             *sim.Scheduler
	brakeAt, reaction sim.Time
	decel             float64
	vehicle           map[packet.NodeID]*mobility.Vehicle
	firstAt           map[packet.NodeID]sim.Time
}

func newBrakeWatcher(s *sim.Scheduler, brakeAt, reaction sim.Time, decel float64) *brakeWatcher {
	return &brakeWatcher{
		sched: s, brakeAt: brakeAt, reaction: reaction, decel: decel,
		vehicle: make(map[packet.NodeID]*mobility.Vehicle),
		firstAt: make(map[packet.NodeID]sim.Time),
	}
}

// watch makes p's vehicles react to the deliveries of comms.
func (b *brakeWatcher) watch(p *mobility.Platoon, comms *ebl.PlatoonComms) {
	for _, v := range p.Vehicles() {
		b.vehicle[v.ID()] = v
	}
	comms.OnDeliver(func(f *ebl.Flow, _ *packet.Packet, at sim.Time) {
		if at < b.brakeAt {
			return
		}
		if _, seen := b.firstAt[f.Receiver]; seen {
			return
		}
		b.firstAt[f.Receiver] = at
		v := b.vehicle[f.Receiver]
		b.sched.Schedule(b.reaction, func() { v.Brake(b.decel) })
	})
}

// indications reports each follower of p in platoon order: its
// indication delay and the distance it covered at speedMS before braking.
// A follower never notified reports IndicationDelay -1 and covers the
// whole span from brakeAt to end blind. FinalGap and Collided are left
// to the caller.
func (b *brakeWatcher) indications(p *mobility.Platoon, speedMS float64, end sim.Time) []BrakeIndication {
	vehicles := p.Vehicles()
	out := make([]BrakeIndication, 0, len(vehicles)-1)
	for _, v := range vehicles[1:] {
		ind := BrakeIndication{Vehicle: v.ID()}
		if at, ok := b.firstAt[v.ID()]; ok {
			ind.IndicationDelay = at - b.brakeAt
			ind.DistanceBlind = speedMS * float64(ind.IndicationDelay+b.reaction)
		} else {
			ind.IndicationDelay = -1
			ind.DistanceBlind = speedMS * float64(end-b.brakeAt)
		}
		out = append(out, ind)
	}
	return out
}
