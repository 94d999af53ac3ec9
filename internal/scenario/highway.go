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

	// Follower reaction: brake on the first indication after BrakeAt.
	firstAt := make(map[packet.NodeID]sim.Time, cfg.Vehicles-1)
	vehicleByID := make(map[packet.NodeID]*mobility.Vehicle, cfg.Vehicles)
	for _, v := range p.Vehicles() {
		vehicleByID[v.ID()] = v
	}
	comms.OnDeliver(func(f *ebl.Flow, _ *packet.Packet, at sim.Time) {
		if at < cfg.BrakeAt {
			return
		}
		if _, seen := firstAt[f.Receiver]; seen {
			return
		}
		firstAt[f.Receiver] = at
		v := vehicleByID[f.Receiver]
		s.Schedule(cfg.ReactionS, func() { v.Brake(cfg.DecelMS2) })
	})

	s.At(cfg.BrakeAt, func() { p.Lead().Brake(cfg.DecelMS2) })
	s.RunUntil(cfg.Duration)

	res := &HighwayResult{Config: cfg, World: w, Platoon: p, Comms: comms}
	vehicles := p.Vehicles()
	for i := 1; i < len(vehicles); i++ {
		v := vehicles[i]
		ind := BrakeIndication{Vehicle: v.ID()}
		if at, ok := firstAt[v.ID()]; ok {
			ind.IndicationDelay = at - cfg.BrakeAt
			ind.DistanceBlind = cfg.SpeedMS * float64(ind.IndicationDelay+cfg.ReactionS)
		} else {
			ind.IndicationDelay = -1 // never notified
			ind.DistanceBlind = cfg.SpeedMS * float64(cfg.Duration-cfg.BrakeAt)
		}
		ahead := vehicles[i-1]
		// Signed along-road gap: a follower that overran its predecessor
		// must not read as "far apart" again.
		along := ahead.Position().Sub(v.Position()).Dot(p.Heading())
		ind.FinalGap = along - cfg.CarLengthM
		ind.Collided = ind.FinalGap <= 0
		if ind.Collided {
			res.Collisions++
		}
		res.Indications = append(res.Indications, ind)
	}
	res.Observations = w.Finish()
	return res, nil
}
