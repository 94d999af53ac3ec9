package scenario

import (
	"fmt"
	"math"

	"vanetsim/internal/anim"
	"vanetsim/internal/ebl"
	"vanetsim/internal/fault"
	"vanetsim/internal/geom"
	"vanetsim/internal/metrics"
	"vanetsim/internal/mobility"
	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
)

// TrialConfig describes one run of the paper's intersection scenario. The
// fixed parameters (drop-tail priority ifq, AODV, 50 mph) and the variable
// ones (MAC type, packet size) match §III.A.
//
// Each field's `canon` tag is its key in the service's cache-key encoding
// (internal/service/canon); "-" marks a field that cannot change result
// bytes, and a key ending in "." prefixes a nested struct's keys.
type TrialConfig struct {
	Name       string  `canon:"name"`
	MAC        MACType `canon:"mac"`
	PacketSize int     `canon:"packet"` // bytes per brake-status packet

	// Scenario geometry and choreography.
	SpeedMS      float64   `canon:"speed_ms"`      // cruise speed (paper: 22.4 m/s = 50 mph)
	SpacingM     float64   `canon:"spacing_m"`     // inter-vehicle separation (paper: 25 m)
	ApproachM    float64   `canon:"approach_m"`    // platoon 1's initial distance from the intersection
	Duration     sim.Time  `canon:"duration_s"`    // simulated time
	PlatoonSize  int       `canon:"platoon"`       // vehicles per platoon (paper: 3)
	DepartDistM  float64   `canon:"depart_m"`      // how far platoon 2 drives away
	RateBps      float64   `canon:"rate_bps"`      // offered CBR load per flow
	TDMARateBps  float64   `canon:"tdma_rate_bps"` // TDMA radio bit rate (calibration: 1 Mb/s)
	QueueCap     int       `canon:"queue_cap"`     // interface queue length (ns-2 default: 50)
	Queue        QueueType `canon:"queue"`         // interface queue flavour (default: PriQueue)
	TCPWindow    float64   `canon:"tcp_window"`    // TCP max congestion window in segments (0 = ns-2 default 20)
	ThroughputBn sim.Time  `canon:"tput_bin_s"`    // throughput record interval
	Seed         uint64    `canon:"seed"`
	SINRPhy      bool      `canon:"sinr"` // aggregate-interference PHY instead of pairwise capture
	CollectTrace bool      `canon:"-"`    // also record an agent-level trace (output-only)
	// Telemetry enables the cross-layer observability registry; the
	// snapshot lands on TrialResult.Telemetry. Observation-only: the same
	// seed yields identical traces and figures with it on or off.
	Telemetry bool `canon:"telemetry"`
	// AnimInterval enables position recording (the Nam-animator role)
	// with the given sample period; 0 disables it. Output-only: frames
	// ride beside the result and never change it.
	AnimInterval sim.Time `canon:"-"`
	// Check arms the runtime invariant checker: layer seams audit packet
	// conservation, slot exclusivity, route sanity and event monotonicity,
	// and the violations land on TrialResult.Violations. Observation-only:
	// the same seed yields identical outputs with it on or off. The
	// `checkall` build tag forces it on regardless of this field.
	Check bool `canon:"check"`
	// Spans arms causal per-packet span tracing: every datagram's lifecycle
	// (emit, queue, MAC wait, airtime, loss or delivery) lands on
	// TrialResult.Spans in scheduler order. Observation-only: the same seed
	// yields identical traces and figures with it on or off.
	Spans bool `canon:"-"`
	// Faults is the impairment recipe (packet/bit error models, bursty
	// loss, shadowing, scheduled outages). The zero value injects nothing:
	// an unfaulted run is byte-identical with or without this field.
	Faults fault.Plan `canon:"fault."`
}

// defaultTrial fills the fixed parameters shared by all three trials.
func defaultTrial(name string, mac MACType, pktSize int) TrialConfig {
	return TrialConfig{
		Name:        name,
		MAC:         mac,
		PacketSize:  pktSize,
		SpeedMS:     ebl.MPHToMS(50), // 22.4 m/s
		SpacingM:    25,
		ApproachM:   448, // 20 s of travel at 22.4 m/s
		Duration:    200,
		PlatoonSize: 3,
		// Far enough that platoon 2 is still driving when the run ends, so
		// it stays silent after departing, as in the paper's figures.
		DepartDistM:  5000,
		RateBps:      1.4e6,
		TDMARateBps:  1e6,
		QueueCap:     50,
		Queue:        QueuePri,
		ThroughputBn: 0.5,
		Seed:         1,
	}
}

// Trial1 is the paper's base trial: TDMA MAC, 1,000-byte packets.
func Trial1() TrialConfig { return defaultTrial("trial1", MACTDMA, 1000) }

// Trial2 varies packet size: TDMA MAC, 500-byte packets.
func Trial2() TrialConfig { return defaultTrial("trial2", MACTDMA, 500) }

// Trial3 varies the MAC: 802.11, 1,000-byte packets.
func Trial3() TrialConfig { return defaultTrial("trial3", MAC80211, 1000) }

// PlatoonResult exposes one platoon's mobility, application, and
// measurements after a run.
type PlatoonResult struct {
	Platoon *mobility.Platoon
	Comms   *ebl.PlatoonComms
}

// MiddleDelays returns the delay series of the flow to the middle vehicle.
func (p *PlatoonResult) MiddleDelays() *metrics.DelaySeries {
	return p.Comms.Flows()[0].Delays
}

// TrailingDelays returns the delay series of the flow to the trailing
// vehicle.
func (p *PlatoonResult) TrailingDelays() *metrics.DelaySeries {
	flows := p.Comms.Flows()
	return flows[len(flows)-1].Delays
}

// Throughput returns the platoon-aggregate throughput sampler.
func (p *PlatoonResult) Throughput() *metrics.Throughput { return p.Comms.Throughput() }

// TrialResult is everything a trial run produced.
type TrialResult struct {
	Config   TrialConfig
	World    *World
	Platoon1 *PlatoonResult
	Platoon2 *PlatoonResult
	Anim     *anim.Recorder // nil unless AnimInterval > 0
	Observations
}

// RunTrial executes the paper's scenario under cfg and returns the
// measurements.
//
// Choreography (paper Figs. 1–2): platoon 2 sits stopped at the
// intersection, communicating, while platoon 1 approaches vertically at
// cruise speed. When platoon 1 reaches the intersection it halts and
// begins communicating; platoon 2 simultaneously departs horizontally and
// stops communicating.
//
// It panics if cfg.Validate fails.
func RunTrial(cfg TrialConfig) *TrialResult {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	stack := DefaultStackConfig(cfg.MAC)
	stack.QueueCap = cfg.QueueCap
	stack.Queue = cfg.Queue
	if cfg.TDMARateBps > 0 {
		stack.TDMA.DataRateBps = cfg.TDMARateBps
	}
	stack.Radio.SINRMode = cfg.SINRPhy
	stack.Faults = cfg.Faults
	stack.Telemetry, stack.Check, stack.Spans, stack.Trace = cfg.Telemetry, cfg.Check, cfg.Spans, cfg.CollectTrace
	w := NewWorld(stack, cfg.Seed)
	s := w.Sched

	// Platoon 1 approaches the intersection from the south in its own
	// lane (x = 5 m), lead first.
	p1Start := geom.V(5, -cfg.ApproachM)
	p1 := mobility.NewPlatoon(s, 0, cfg.PlatoonSize, p1Start, geom.V(0, 1), cfg.SpacingM)
	// Platoon 2 sits at the intersection heading east.
	first2 := packet.NodeID(cfg.PlatoonSize)
	p2 := mobility.NewPlatoon(s, first2, cfg.PlatoonSize, geom.V(0, 0), geom.V(1, 0), cfg.SpacingM)

	// Stacks. TDMA slot order is node-ID order, as in ns-2.
	vehicles := append(append([]*mobility.Vehicle{}, p1.Vehicles()...), p2.Vehicles()...)
	for _, v := range vehicles {
		w.AddVehicleNode(v)
	}

	// Start platoon 1 moving *before* wiring comms so its application
	// correctly begins silent.
	p1.SetDest(geom.V(5, 0), cfg.SpeedMS)

	comms := func(p *mobility.Platoon, basePort int) *ebl.PlatoonComms {
		c := ebl.DefaultCommsConfig()
		c.PacketSize = cfg.PacketSize
		c.RateBps = cfg.RateBps
		c.BasePort = basePort
		c.ThroughputBin = cfg.ThroughputBn
		if cfg.TCPWindow > 0 {
			c.TCP.MaxCwnd = cfg.TCPWindow
		}
		return w.AddComms(p, c)
	}
	comms1 := comms(p1, 1000)
	comms2 := comms(p2, 2000)

	var rec *anim.Recorder
	if cfg.AnimInterval > 0 {
		rec = anim.NewRecorder(s, cfg.AnimInterval)
		for _, v := range vehicles {
			rec.Track(v.ID(), v.Position)
		}
		rec.Start(cfg.Duration)
	}

	// When platoon 1 halts at the intersection, platoon 2 departs.
	p1.Lead().Subscribe(func(e mobility.Event) {
		if e.Type == mobility.EventStopped {
			p2.SetDest(geom.V(cfg.DepartDistM, 0), cfg.SpeedMS)
		}
	})

	s.RunUntil(cfg.Duration)

	return &TrialResult{
		Config:       cfg,
		World:        w,
		Platoon1:     &PlatoonResult{Platoon: p1, Comms: comms1},
		Platoon2:     &PlatoonResult{Platoon: p2, Comms: comms2},
		Anim:         rec,
		Observations: w.Finish(),
	}
}

// Validate reports whether cfg describes a run RunTrial can execute: a
// platoon with a lead and at least one follower, a positive packet size, a
// finite non-negative duration and a valid fault plan whose outages name
// the trial's 2×PlatoonSize vehicles. It allocates nothing on success.
func (c TrialConfig) Validate() error {
	switch {
	case c.PlatoonSize < 2:
		return fmt.Errorf("scenario: platoon of %d needs a lead and at least one follower", c.PlatoonSize)
	case c.PacketSize < 1:
		return fmt.Errorf("scenario: packet size %d bytes is not positive", c.PacketSize)
	case !(c.Duration >= 0 && c.Duration < sim.Time(math.Inf(1))):
		return fmt.Errorf("scenario: duration %v s: want finite and >= 0", float64(c.Duration))
	}
	for _, o := range c.Faults.Outages {
		if int(o.Node) >= 2*c.PlatoonSize {
			return fmt.Errorf("scenario: outage on node %v: the trial's vehicles are nodes 0..%d", o.Node, 2*c.PlatoonSize-1)
		}
	}
	return c.Faults.Validate()
}

// String summarises the configuration.
func (c TrialConfig) String() string {
	return fmt.Sprintf("%s{mac=%v pkt=%dB}", c.Name, c.MAC, c.PacketSize)
}
