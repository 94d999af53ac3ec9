// Package scenario assembles full protocol stacks — application,
// transport, AODV, interface queue, MAC, radio — into simulated nodes, and
// defines the paper's two-platoon intersection scenario and its three
// trials. It is the Go equivalent of the paper's Tcl script.
package scenario

import (
	"fmt"
	"strings"
	"time"

	"vanetsim/internal/aodv"
	"vanetsim/internal/app"
	"vanetsim/internal/check"
	"vanetsim/internal/ebl"
	"vanetsim/internal/fault"
	"vanetsim/internal/mac"
	"vanetsim/internal/mac80211"
	"vanetsim/internal/mactdma"
	"vanetsim/internal/mobility"
	"vanetsim/internal/netlayer"
	"vanetsim/internal/obs"
	"vanetsim/internal/packet"
	"vanetsim/internal/phy"
	"vanetsim/internal/queue"
	"vanetsim/internal/sim"
	"vanetsim/internal/span"
	"vanetsim/internal/trace"
)

// MACType selects the medium-access protocol — the paper's second variable
// parameter.
type MACType uint8

// Supported MAC types.
const (
	MACTDMA MACType = iota
	MAC80211
)

var macNames = [...]string{"TDMA", "802.11"}

// String returns the MAC name as the paper writes it.
func (m MACType) String() string {
	if int(m) < len(macNames) {
		return macNames[m]
	}
	return fmt.Sprintf("mac(%d)", uint8(m))
}

// ParseMAC resolves the MAC names the CLI flags and service requests
// share: "tdma" (or empty, the paper's base MAC) and "802.11" (also
// "dcf", "80211"), in any case.
func ParseMAC(name string) (MACType, error) {
	switch strings.ToLower(name) {
	case "", "tdma":
		return MACTDMA, nil
	case "802.11", "dcf", "80211":
		return MAC80211, nil
	}
	return 0, fmt.Errorf("unknown MAC %q (want tdma or 802.11)", name)
}

// QueueType selects the interface queue flavour.
type QueueType uint8

// Supported queue types.
const (
	QueueDropTail QueueType = iota
	QueuePri
	// QueueRED uses random early detection — the ablation against the
	// paper's drop-tail choice (RED cuts the standing queue and with it
	// the steady-state delay plateau).
	QueueRED
)

// StackConfig describes how every node's stack is built.
type StackConfig struct {
	MAC      MACType
	Queue    QueueType
	QueueCap int
	Radio    phy.RadioParams
	Prop     phy.Propagation
	TDMA     mactdma.Config
	DCF      mac80211.Config
	AODV     aodv.Config
	// Faults is the impairment recipe. The zero value injects nothing and
	// leaves every unfaulted golden digest untouched.
	Faults fault.Plan

	// The observation-only instruments. The world builds each armed one,
	// wires it into every stack and every platoon's comms, and harvests
	// it in Finish. Each is byte-identical on or off: the same seed
	// produces the same run either way.
	//
	// Telemetry arms the cross-layer metrics registry.
	Telemetry bool
	// Check arms the runtime invariant checker: layer seams audit packet
	// conservation, slot exclusivity, route sanity and event monotonicity.
	// The `checkall` build tag forces it on regardless of this field.
	Check bool
	// Spans arms the causal per-packet tracer: every layer seam records
	// lifecycle events.
	Spans bool
	// Trace arms the agent-level ns-2-style trace of the platoons' EBL
	// send and receive events.
	Trace bool
}

// DefaultStackConfig returns the paper's fixed parameters: drop-tail
// priority queue of 50 packets, AODV routing, ns-2 WaveLAN radio, with the
// requested MAC.
func DefaultStackConfig(m MACType) StackConfig {
	return StackConfig{
		MAC:      m,
		Queue:    QueuePri,
		QueueCap: 50,
		Radio:    phy.DefaultRadioParams(),
		Prop:     phy.DefaultPropagation(),
		TDMA:     mactdma.DefaultConfig(),
		DCF:      mac80211.DefaultConfig(),
		AODV:     aodv.DefaultConfig(),
	}
}

// Node is one assembled stack.
type Node struct {
	ID    packet.NodeID
	Net   *netlayer.Net
	AODV  *aodv.Agent
	Radio *phy.Radio
	Ifq   queue.Queue
	MAC   mac.MAC

	// Exactly one of these is non-nil, matching the world's MAC type;
	// they expose protocol-specific statistics.
	TDMA *mactdma.MAC
	DCF  *mac80211.MAC
}

// World owns the shared simulation infrastructure and the set of nodes.
type World struct {
	Sched   *sim.Scheduler
	Channel *phy.Channel
	PF      *packet.Factory
	RNG     *sim.RNG
	Nodes   []*Node

	cfg      StackConfig
	schedule *mactdma.Schedule // TDMA worlds only
	fault    *fault.Injector   // nil unless a per-link loss model is enabled
	shadow   *phy.Shadowing    // nil unless shadowing is enabled

	// Observation-only instruments, each nil when disarmed, and the
	// platoon comms Finish harvests and audits, in registration order.
	obs       *obs.Registry
	live      liveInstruments
	spans     *span.Recorder
	trace     *trace.Collector
	comms     []*ebl.PlatoonComms
	wallStart time.Time

	// Invariant-checking state (all nil when checking is disarmed).
	check      *check.Registry
	slotGuard  *check.SlotGuard  // TDMA worlds only
	routeGuard *check.RouteGuard // shared across all agents
}

// fullScan keeps every new world on the channel's full-receiver scan.
// Culling is exact, so only the culled-vs-scan equivalence test sets it
// (export_test.go).
var fullScan bool

// NewWorld creates an empty world with the given stack recipe and seed.
func NewWorld(cfg StackConfig, seed uint64) *World {
	if err := cfg.Faults.Validate(); err != nil {
		panic(err)
	}
	s := sim.New()
	rng := sim.NewRNG(seed)
	prop := cfg.Prop
	var shadow *phy.Shadowing
	if cfg.Faults.ShadowSigmaDB > 0 {
		// Shadowing draws from its own forked stream (Fork reads without
		// advancing), so enabling it shifts no other layer's randomness.
		shadow = phy.NewShadowing(prop, cfg.Faults.ShadowSigmaDB, rng.Fork("fault/shadow"))
		prop = shadow
	}
	// One packet factory per run: it numbers every packet and owns the
	// pool that every layer releases consumed packets into.
	pf := &packet.Factory{}
	w := &World{
		Sched:   s,
		Channel: phy.NewChannel(s, prop, pf),
		PF:      pf,
		RNG:     rng,
		cfg:     cfg,
		shadow:  shadow,
	}
	if cfg.Telemetry {
		w.obs = obs.NewRegistry()
	}
	w.live = newLiveInstruments(w.obs, cfg.MAC)
	if cfg.Spans {
		// The recorder carries the run's clock so clockless layers
		// (netlayer, interface queues) can stamp events.
		w.spans = span.NewRecorder()
		w.spans.Bind(s)
	}
	if cfg.Trace {
		w.trace = &trace.Collector{}
	}
	if shadow == nil && !fullScan {
		// Spatial-index neighbor culling is exact (byte-identical digests)
		// for every deterministic monotone propagation model. Shadowing is
		// the exception: its per-computation RNG draw means skipping a
		// below-median receiver would also skip a draw and shift every
		// subsequent sample, so shadowed worlds keep the full scan.
		w.Channel.EnableCulling()
	}
	if cfg.Faults.LinkEnabled() {
		w.fault = fault.NewInjector(cfg.Faults, rng.Fork("fault/link"))
	}
	if cfg.MAC == MACTDMA {
		w.schedule = mactdma.NewSchedule(cfg.TDMA.SlotDuration())
	}
	if cfg.Check || check.ForceAll {
		w.check = check.New()
		s.SetStepHook(check.Monotonic(w.check))
		w.routeGuard = check.NewRouteGuard(w.check)
		if cfg.MAC == MACTDMA {
			w.slotGuard = check.NewSlotGuard(w.check, cfg.TDMA.SlotDuration())
		}
		// With both subsystems armed, violations carry the offending
		// packet's flight-recorder trail (TrailFn is nil when spans are off,
		// which leaves the registry's zero-cost default in place).
		w.check.SetTrail(w.spans.TrailFn())
	}
	w.wallStart = time.Now()
	return w
}

// Observations is what a run's observation-only instruments recorded.
// Every scenario result embeds it. Only WallSeconds depends on the host;
// every other field is a pure function of the configuration and seed.
type Observations struct {
	// Trace is the agent-level ns-2-style trace (nil unless armed).
	Trace []trace.Record
	// Telemetry is the cross-layer metrics snapshot (nil unless armed).
	Telemetry *obs.Snapshot
	// Violations are the invariant violations recorded during a checked
	// run (nil unless checking was armed; empty means the run was clean).
	Violations []check.Violation
	// Spans is the causal per-packet event stream in scheduler order (nil
	// unless armed).
	Spans []span.Event
	// WallSeconds is the host wall-clock cost of the run, from NewWorld to
	// Finish. It feeds no simulation output.
	WallSeconds float64
}

// Finish harvests the world's instruments once, after the run: the
// telemetry snapshot, then the end-of-run invariant audit over the
// registered comms in registration order, then the spans and the trace,
// then the wall time. Harvesting only reads counters the simulation keeps
// anyway, so it never changes a run's outputs.
func (w *World) Finish() Observations {
	o := Observations{
		Telemetry:  w.harvestTelemetry(),
		Violations: w.audit(),
		Spans:      w.spans.Events(),
	}
	if w.trace != nil {
		o.Trace = w.trace.Records()
	}
	o.WallSeconds = time.Since(w.wallStart).Seconds()
	return o
}

// FaultStats returns the per-link injector's counters (zero when no loss
// model is enabled).
func (w *World) FaultStats() fault.Stats {
	if w.fault == nil {
		return fault.Stats{}
	}
	return w.fault.Stats()
}

// Config returns the stack recipe the world builds with.
func (w *World) Config() StackConfig { return w.cfg }

// TDMASchedule returns the shared slot schedule (nil for 802.11 worlds).
func (w *World) TDMASchedule() *mactdma.Schedule { return w.schedule }

// AddNode assembles a full stack for node id whose position is reported by
// pos, attaches it to the channel, and returns it.
func (w *World) AddNode(id packet.NodeID, pos phy.PositionFn) *Node {
	n := &Node{ID: id}
	n.Radio = phy.NewRadio(id, w.Sched, pos, w.cfg.Radio)
	w.Channel.Attach(n.Radio)
	if w.fault != nil {
		n.Radio.SetImpairment(w.fault)
	}
	w.scheduleOutages(n.Radio)
	n.Net = netlayer.New(id, w.PF)
	hook := w.ifqHook(n)
	switch w.cfg.Queue {
	case QueuePri:
		n.Ifq = queue.NewPriQueue(w.cfg.QueueCap, hook)
	case QueueRED:
		n.Ifq = queue.NewRED(w.cfg.QueueCap, queue.DefaultREDConfig(), w.RNG.Fork(fmt.Sprintf("red-%d", id)), hook)
	default:
		n.Ifq = queue.NewDropTail(w.cfg.QueueCap, hook)
	}
	n.Radio.SetSpans(w.spans)
	switch w.cfg.MAC {
	case MACTDMA:
		n.TDMA = mactdma.New(id, w.Sched, n.Radio, n.Ifq, n.Net, w.schedule, w.cfg.TDMA)
		n.TDMA.SetObs(w.live.tdmaSlotWait)
		n.TDMA.SetCheck(w.slotGuard)
		n.TDMA.SetSpans(w.spans)
		n.MAC = n.TDMA
	case MAC80211:
		rng := w.RNG.Fork(fmt.Sprintf("mac80211-%d", id))
		n.DCF = mac80211.New(id, w.Sched, n.Radio, n.Ifq, n.Net, w.PF, rng, w.cfg.DCF)
		n.DCF.SetObs(w.live.dcfBackoffWait, w.live.dcfRetries, w.live.dcfService)
		n.DCF.SetSpans(w.spans)
		n.MAC = n.DCF
	default:
		panic(fmt.Sprintf("scenario: unknown MAC type %v", w.cfg.MAC))
	}
	n.Net.Attach(n.Ifq, n.MAC)
	n.Net.SetSpans(w.spans)
	n.AODV = aodv.New(w.Sched, n.Net, w.PF, w.RNG.Fork(fmt.Sprintf("aodv-%d", id)), w.cfg.AODV)
	n.AODV.SetCheck(w.routeGuard)
	n.AODV.SetSpans(w.spans)
	w.Nodes = append(w.Nodes, n)
	return n
}

// ifqHook returns node n's interface-queue hook: it records the queue's
// span events and observes its occupancy for telemetry. It is nil when
// spans and telemetry are both disarmed, so the queue pays one nil check.
// The checker needs no hook; it audits the queue's Stats after the run.
func (w *World) ifqHook(n *Node) queue.Hook {
	if w.spans == nil && !w.obs.Enabled() {
		return nil
	}
	rec, sched, occupancy, series := w.spans, w.Sched, w.live.ifqOccupancy, w.live.ifqOccSeries
	return func(ev queue.Event, p *packet.Packet) {
		switch ev {
		case queue.EventEnqueue:
			rec.Record(span.OpEnq, span.CauseNone, n.ID, p)
		case queue.EventDequeue:
			rec.Record(span.OpDeq, span.CauseNone, n.ID, p)
		case queue.EventDropFull:
			rec.Record(span.OpIfqDrop, span.CauseIfqFull, n.ID, p)
		case queue.EventDropEarly:
			rec.Record(span.OpIfqDrop, span.CauseRedEarly, n.ID, p)
		case queue.EventEvicted:
			// The enqueue that caused the eviction follows and observes
			// the occupancy; the length in between is not a sample.
			rec.Record(span.OpIfqDrop, span.CauseIfqEvict, n.ID, p)
			return
		}
		// Telemetry samples the occupancy after every Enqueue call and
		// every dequeued packet.
		occ := float64(n.Ifq.Len())
		occupancy.Set(occ)
		series.Observe(sched.Now(), occ)
	}
}

// AddVehicleNode assembles a stack for a mobile vehicle and makes the
// channel the vehicle's position source: the channel's motion table holds
// the vehicle's current constant-acceleration segment and is refreshed on
// every trajectory change, so broadcast computes the vehicle's position
// from it, bit-identical to Position, and the spatial index revalidates
// the radio's grid cell only when the vehicle could actually have strayed.
// Nodes added via plain AddNode are placed by their PositionFn and never
// culled, so mixing the two stays exact.
func (w *World) AddVehicleNode(v *mobility.Vehicle) *Node {
	n := w.AddNode(v.ID(), v.Position)
	w.Channel.SetMotion(n.Radio, func() phy.Motion {
		start, law := v.Motion()
		return phy.Motion{Start: start, Kinematics: law}
	})
	radio := n.Radio
	v.OnMotionChange(func() { w.Channel.MotionChanged(radio) })
	return n
}

// AddComms builds the EBL application for platoon p, whose vehicles must
// already have nodes, with every armed instrument wired in: telemetry,
// spans, the trace and the delay-envelope check against the active MAC's
// bit rate. The comms are registered for Finish's harvest and audit.
func (w *World) AddComms(p *mobility.Platoon, c ebl.CommsConfig) *ebl.PlatoonComms {
	nets := make([]*netlayer.Net, 0, p.Len())
	for _, v := range p.Vehicles() {
		nets = append(nets, w.Node(v.ID()).Net)
	}
	c.Obs, c.Spans, c.Trace = w.obs, w.spans, w.trace
	if w.check != nil {
		rate := w.cfg.TDMA.DataRateBps
		if w.cfg.MAC == MAC80211 {
			rate = w.cfg.DCF.DataRateBps
		}
		c.Check = check.NewEnvelope(w.check, rate)
	}
	pc := ebl.NewPlatoonComms(w.Sched, p, nets, w.PF, c)
	w.comms = append(w.comms, pc)
	return pc
}

// AddUDPSink binds a datagram sink to port on node n, recording its
// consumption events when spans are armed.
func (w *World) AddUDPSink(n *Node, port int) *app.UDPSink {
	sink := app.NewUDPSink(w.Sched, n.Net, port)
	sink.SetSpans(w.spans)
	return sink
}

// scheduleOutages arms the plan's outage windows targeting r's node: the
// radio goes down at each window's start and recovers at its end. A node
// added mid-run drops at once for a window already open and skips one
// already closed. Plan.Validate keeps one node's windows apart, so no two
// of its edges share a timestamp and plan order cannot matter.
func (w *World) scheduleOutages(r *phy.Radio) {
	for _, o := range w.cfg.Faults.Outages {
		if o.Node != r.ID() {
			continue
		}
		down, up := o.Start, o.Start+o.Duration
		if down < w.Sched.Now() {
			down = w.Sched.Now()
		}
		if up <= down {
			continue
		}
		r := r
		w.Sched.AtKind(sim.KindPHY, down, func() { r.SetDown(true) })
		w.Sched.AtKind(sim.KindPHY, up, func() { r.SetDown(false) })
	}
}

// Node returns the node with the given ID, or nil.
func (w *World) Node(id packet.NodeID) *Node {
	for _, n := range w.Nodes {
		if n.ID == id {
			return n
		}
	}
	return nil
}
