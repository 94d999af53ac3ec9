// Package ebl implements the paper's primary contribution: the Extended
// Brake Lights (EBL) application, one of the three CAMP/VSCC vehicle-safety
// scenarios and the only one that communicates vehicle-to-vehicle. A
// platoon's lead vehicle streams brake-status packets over TCP to each
// trailing vehicle, but only while the platoon is braking or stopped; the
// package also provides the stopping-distance feasibility analysis of the
// paper's §III.E.
package ebl

import (
	"fmt"

	"vanetsim/internal/app"
	"vanetsim/internal/check"
	"vanetsim/internal/metrics"
	"vanetsim/internal/mobility"
	"vanetsim/internal/netlayer"
	"vanetsim/internal/obs"
	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
	"vanetsim/internal/span"
	"vanetsim/internal/tcp"
	"vanetsim/internal/trace"
)

// CommsConfig parameterises a platoon's EBL communication.
type CommsConfig struct {
	// PacketSize is the brake-status payload in bytes — the paper's
	// variable parameter (500 or 1,000).
	PacketSize int
	// RateBps is the per-flow constant bit rate offered by the lead.
	RateBps float64
	// TCP configures the underlying transport; SegmentSize is overridden
	// with PacketSize.
	TCP tcp.Config
	// BasePort is the first port used; each flow takes two consecutive
	// ports from it.
	BasePort int
	// ThroughputBin is the throughput sampling interval (the paper's
	// record period).
	ThroughputBin sim.Time
	// Obs receives transport-layer telemetry (RTT samples) when non-nil.
	Obs *obs.Registry
	// Check, when non-nil, audits every delivery against the physical
	// envelope (one-way delay at least serialization time) and flags
	// rejected metric samples.
	Check *check.Envelope
	// Spans, when non-nil, records application-level consumption events
	// for the causal tracer.
	Spans *span.Recorder
}

// RTTBuckets are the histogram bounds (seconds) for TCP round-trip
// samples, matching the scenario layer's latency buckets.
var RTTBuckets = []float64{
	1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3, 10, 30,
}

// DefaultCommsConfig returns the trial-1 configuration: 1,000-byte
// packets, 1.2 Mb/s offered load per flow, 0.5 s throughput bins.
func DefaultCommsConfig() CommsConfig {
	return CommsConfig{
		PacketSize:    1000,
		RateBps:       1.2e6,
		TCP:           tcp.DefaultConfig(),
		BasePort:      1000,
		ThroughputBin: 0.5,
	}
}

// Flow is one lead-to-follower EBL stream and its measurements.
type Flow struct {
	Receiver packet.NodeID
	Sender   *tcp.Sender
	Sink     *tcp.Sink
	CBR      *app.CBR
	// Delays indexes one-way delay by TCP segment number — the packet-ID
	// axis of the paper's delay figures.
	Delays *metrics.DelaySeries

	seen map[int]bool
}

// PlatoonComms runs the EBL application for one platoon: a TCP flow from
// the lead to every follower, paced by a CBR generator that runs exactly
// while the platoon communicates (braking or stopped, per the paper's
// scenario rules).
type PlatoonComms struct {
	sched   *sim.Scheduler
	platoon *mobility.Platoon
	flows   []*Flow
	// Throughput aggregates received payload bytes across the platoon's
	// sinks — the paper's per-platoon throughput curve.
	throughput *metrics.Throughput

	tracer    *trace.Collector // optional
	check     *check.Envelope  // optional
	spans     *span.Recorder   // optional
	onDeliver func(f *Flow, p *packet.Packet, at sim.Time)
}

// OnDeliver registers an observer called once per first-time segment
// delivery on any flow. The highway scenario uses it to trigger follower
// braking on the first brake indication. p and its payload are valid only
// for the call: the network layer recycles both once the sink returns, so
// an observer copies what it keeps.
func (pc *PlatoonComms) OnDeliver(fn func(f *Flow, p *packet.Packet, at sim.Time)) {
	pc.onDeliver = fn
}

// NewPlatoonComms wires the EBL flows for a platoon. nets must align with
// platoon.Vehicles() (nets[i] is vehicle i's network layer). tracer may be
// nil; when set, agent-level send/receive events are recorded for offline
// analysis. Communication starts/stops automatically with the lead
// vehicle's phase; the initial phase is honoured too.
func NewPlatoonComms(sched *sim.Scheduler, platoon *mobility.Platoon, nets []*netlayer.Net, pf *packet.Factory, cfg CommsConfig, tracer *trace.Collector) *PlatoonComms {
	if len(nets) != platoon.Len() {
		panic(fmt.Sprintf("ebl: %d nets for %d vehicles", len(nets), platoon.Len()))
	}
	if cfg.PacketSize <= 0 || cfg.RateBps <= 0 {
		panic("ebl: packet size and rate must be positive")
	}
	tcpCfg := cfg.TCP
	tcpCfg.SegmentSize = cfg.PacketSize
	pc := &PlatoonComms{
		sched:      sched,
		platoon:    platoon,
		throughput: metrics.NewThroughput(cfg.ThroughputBin),
		tracer:     tracer,
		check:      cfg.Check,
		spans:      cfg.Spans,
	}
	// Registry methods are nil-safe: rttHist is nil (and SetObs a no-op
	// store) when telemetry is off.
	rttHist := cfg.Obs.Histogram("tcp/rtt_s", "TCP round-trip time samples", RTTBuckets)
	lead := platoon.Lead()
	leadNet := nets[0]
	for i, follower := range platoon.Followers() {
		port := cfg.BasePort + 2*i
		snd := tcp.NewSender(sched, leadNet, pf, port, follower.ID(), port+1, tcpCfg)
		snd.SetObs(rttHist)
		snk := tcp.NewSink(sched, nets[i+1], pf, port+1, tcpCfg)
		snd.SetPayloadFn(statusSampler(sched, lead))
		f := &Flow{
			Receiver: follower.ID(),
			Sender:   snd,
			Sink:     snk,
			CBR:      app.NewCBR(sched, snd, cfg.PacketSize, cfg.RateBps),
			Delays:   &metrics.DelaySeries{},
			seen:     make(map[int]bool),
		}
		pc.observe(f, tcpCfg)
		pc.flows = append(pc.flows, f)
	}
	lead.Subscribe(func(mobility.Event) { pc.sync() })
	pc.sync()
	return pc
}

// observe wires the measurement hooks for one flow.
func (pc *PlatoonComms) observe(f *Flow, tcpCfg tcp.Config) {
	rcvNode := f.Receiver
	f.Sink.OnRecv(func(p *packet.Packet, at sim.Time) {
		if pc.tracer != nil {
			pc.tracer.Add(trace.FromPacket(trace.Recv, at, rcvNode, trace.LayerAgent, p))
		}
		if f.seen[p.TCP.Seq] {
			return // duplicate delivery: measured once, like the paper's per-ID analysis
		}
		f.seen[p.TCP.Seq] = true
		pc.spans.Record(span.OpAppRecv, span.CauseNone, rcvNode, p)
		pc.check.Delivery(at, p.SentAt, p.Size, p.UID)
		f.Delays.Add(p.TCP.Seq, at-p.SentAt)
		if err := pc.throughput.Add(at, p.Size-tcpCfg.HdrBytes); err != nil {
			pc.check.BadSample(at, err)
		}
		if pc.onDeliver != nil {
			pc.onDeliver(f, p, at)
		}
	})
	if pc.tracer != nil {
		leadID := pc.platoon.Lead().ID()
		f.Sender.OnSend(func(p *packet.Packet) {
			pc.tracer.Add(trace.FromPacket(trace.Send, pc.sched.Now(), leadID, trace.LayerAgent, p))
		})
	}
}

// sync starts or stops the CBR generators to match the platoon's phase.
func (pc *PlatoonComms) sync() {
	if pc.platoon.Communicating() {
		for _, f := range pc.flows {
			f.CBR.Start()
		}
		return
	}
	for _, f := range pc.flows {
		f.CBR.Stop()
		// Drop the unsent backlog too: a moving platoon is silent, not
		// slowly draining 20 s of queued brake-status bytes.
		f.Sender.ClearBacklog()
	}
}

// Flows returns the per-follower flows in platoon order (middle vehicle
// first, trailing vehicle last for a 3-vehicle platoon).
func (pc *PlatoonComms) Flows() []*Flow { return pc.flows }

// Flow returns the flow whose receiver is id, or nil.
func (pc *PlatoonComms) Flow(id packet.NodeID) *Flow {
	for _, f := range pc.flows {
		if f.Receiver == id {
			return f
		}
	}
	return nil
}

// Throughput returns the platoon-aggregate throughput sampler.
func (pc *PlatoonComms) Throughput() *metrics.Throughput { return pc.throughput }

// Communicating reports whether the application is currently generating
// traffic.
func (pc *PlatoonComms) Communicating() bool { return pc.platoon.Communicating() }
