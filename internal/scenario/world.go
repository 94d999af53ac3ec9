// Package scenario assembles full protocol stacks — application,
// transport, AODV, interface queue, MAC, radio — into simulated nodes, and
// defines the paper's two-platoon intersection scenario and its three
// trials. It is the Go equivalent of the paper's Tcl script.
package scenario

import (
	"fmt"

	"vanetsim/internal/aodv"
	"vanetsim/internal/check"
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
	// Obs receives cross-layer telemetry when non-nil. Instrumentation is
	// observation-only: the same seed produces identical runs with it on
	// or off.
	Obs *obs.Registry
	// Faults is the impairment recipe. The zero value injects nothing and
	// leaves every unfaulted golden digest untouched.
	Faults fault.Plan
	// Check, when non-nil, arms the runtime invariant checker: layer seams
	// audit packet conservation, slot exclusivity, route sanity and event
	// monotonicity into this registry. Checking is observation-only — runs
	// are byte-identical with it on or off.
	Check *check.Registry
	// Spans, when non-nil, arms the causal per-packet tracer: every layer
	// seam records lifecycle events into this recorder. Tracing is
	// observation-only and, like Check, byte-identical on or off.
	Spans *span.Recorder
	// DisableCulling forces the channel's full-receiver scan even when the
	// propagation model would allow spatial-index culling. Culling is exact
	// — indexed and scanned runs are byte-identical — so this only costs
	// time; it exists for equivalence tests and scaling benchmarks.
	DisableCulling bool
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
	// Obs is the telemetry registry (nil when telemetry is disabled).
	Obs *obs.Registry

	cfg      StackConfig
	spans    *span.Recorder    // nil when span tracing is disarmed
	schedule *mactdma.Schedule // TDMA worlds only
	live     liveInstruments
	fault    *fault.Injector // nil unless a per-link loss model is enabled
	shadow   *phy.Shadowing  // nil unless shadowing is enabled

	// Invariant-checking state (all nil/empty when cfg.Check is nil).
	check      *check.Registry
	chkQueues  []labeledQueue
	slotGuard  *check.SlotGuard  // TDMA worlds only
	routeGuard *check.RouteGuard // shared across all agents
}

// labeledQueue pairs a conservation-counting queue with its owner for
// end-of-run audit messages.
type labeledQueue struct {
	id packet.NodeID
	q  *check.CountingQueue
}

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
		Obs:     cfg.Obs,
		cfg:     cfg,
		spans:   cfg.Spans,
		live:    newLiveInstruments(cfg.Obs, cfg.MAC),
		shadow:  shadow,
	}
	// The recorder carries the run's clock so clockless layers (netlayer,
	// queue taps) can stamp events; Bind is nil-safe.
	w.spans.Bind(s)
	if shadow == nil && !cfg.DisableCulling {
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
	if cfg.Check != nil {
		w.check = cfg.Check
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
	return w
}

// CheckRegistry returns the invariant-violation registry (nil when
// checking is disabled).
func (w *World) CheckRegistry() *check.Registry { return w.check }

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
	// IfqDropFn is nil when spans are disarmed, preserving the queues'
	// silent-discard fast path.
	onDrop := w.spans.IfqDropFn(id)
	switch w.cfg.Queue {
	case QueuePri:
		n.Ifq = queue.NewPriQueue(w.cfg.QueueCap, onDrop)
	case QueueRED:
		n.Ifq = queue.NewRED(w.cfg.QueueCap, queue.DefaultREDConfig(), w.RNG.Fork(fmt.Sprintf("red-%d", id)), onDrop)
	default:
		n.Ifq = queue.NewDropTail(w.cfg.QueueCap, onDrop)
	}
	if w.check != nil {
		// Transparent conservation counter under the telemetry decorator so
		// it sees exactly what the MAC and network layer exchange.
		cq := check.Count(n.Ifq)
		w.chkQueues = append(w.chkQueues, labeledQueue{id: id, q: cq})
		n.Ifq = cq
	}
	if w.Obs.Enabled() {
		// Transparent decorator: an unwrapped queue pays nothing when
		// telemetry is off.
		n.Ifq = queue.Instrument(n.Ifq, w.Sched, w.live.ifqOccupancy, w.live.ifqEnqueued, w.live.ifqOccSeries)
	}
	// Span tap outermost, so enq/deq events reflect exactly what the
	// network layer and MAC exchange. TapQueue is the identity when
	// tracing is disarmed.
	n.Ifq = span.TapQueue(n.Ifq, w.spans, id)
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

// AddVehicleNode assembles a stack for a mobile vehicle and gives the
// channel's spatial index kinematic visibility into it: the index learns
// the vehicle's constant-acceleration segment and is notified on every
// trajectory change, so the radio's grid cell is revalidated only when the
// vehicle could actually have strayed. Nodes added via plain AddNode are
// never culled, so mixing the two stays exact.
func (w *World) AddVehicleNode(v *mobility.Vehicle) *Node {
	n := w.AddNode(v.ID(), v.Position)
	w.Channel.SetMotion(n.Radio, func() phy.Motion {
		pos, vel, acc := v.Motion()
		return phy.Motion{Pos: pos, Vel: vel, Acc: acc}
	})
	radio := n.Radio
	v.OnMotionChange(func() { w.Channel.MotionChanged(radio) })
	return n
}

// scheduleOutages arms the plan's outage windows targeting r's node: the
// radio goes down at each window's start and recovers at its end. Windows
// whose start lies in the past are clamped to now (the radio drops
// immediately); non-positive durations are no-ops.
func (w *World) scheduleOutages(r *phy.Radio) {
	for _, o := range w.cfg.Faults.Outages {
		if o.Node != r.ID() || o.Duration <= 0 {
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
