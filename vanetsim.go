// Package vanetsim reproduces "Simulation and Analysis of Extended Brake
// Lights for Inter-Vehicle Communication Networks" (Watson, Pellerito,
// Gladden, Fu; ICDCS 2007) as a self-contained discrete-event simulator:
// an ns-2-class wireless stack (two-ray-ground PHY, TDMA and 802.11 DCF
// MACs, AODV routing, one-way TCP) under the paper's two-platoon
// intersection scenario, plus the analysis machinery that regenerates
// every figure and table of its evaluation.
//
// Quick start:
//
//	result := vanetsim.RunTrial(vanetsim.Trial1())
//	fmt.Println(vanetsim.DelayTable(result))
//
// The three paper trials are Trial1 (TDMA, 1,000-byte packets), Trial2
// (TDMA, 500 bytes) and Trial3 (802.11, 1,000 bytes). Figures are
// regenerated with the Fig* helpers and rendered with Figure.ASCII or
// exported as CSV.
package vanetsim

import (
	"fmt"
	"os"
	"strings"

	"vanetsim/internal/check"
	"vanetsim/internal/ebl"
	"vanetsim/internal/obs"
	"vanetsim/internal/runner"
	"vanetsim/internal/scenario"
	"vanetsim/internal/sim"
	"vanetsim/internal/span"
)

// MACType selects the medium-access protocol for a trial.
type MACType = scenario.MACType

// MAC types.
const (
	MACTDMA  = scenario.MACTDMA
	MAC80211 = scenario.MAC80211
)

// ParseMAC resolves a MAC name as the CLI flags and service requests
// spell it: "tdma" (or empty) and "802.11" (also "dcf", "80211"), in
// any case.
func ParseMAC(name string) (MACType, error) { return scenario.ParseMAC(name) }

// QueueType selects the interface-queue flavour for a trial.
type QueueType = scenario.QueueType

// Queue types.
const (
	QueueDropTail = scenario.QueueDropTail
	QueuePri      = scenario.QueuePri
	QueueRED      = scenario.QueueRED
)

// TrialConfig configures a run of the paper's intersection scenario.
type TrialConfig = scenario.TrialConfig

// TrialResult carries a completed trial's measurements.
type TrialResult = scenario.TrialResult

// Observations is what a run's observation-only instruments recorded: the
// trace, telemetry, invariant violations, spans and host wall time. Every
// scenario result embeds it.
type Observations = scenario.Observations

// PlatoonResult is one platoon's view of a trial.
type PlatoonResult = scenario.PlatoonResult

// Trial1 returns the paper's base configuration: TDMA, 1,000-byte packets.
func Trial1() TrialConfig { return scenario.Trial1() }

// Trial2 returns the packet-size variation: TDMA, 500-byte packets.
func Trial2() TrialConfig { return scenario.Trial2() }

// Trial3 returns the MAC variation: 802.11, 1,000-byte packets.
func Trial3() TrialConfig { return scenario.Trial3() }

// RunTrial executes the scenario under cfg.
func RunTrial(cfg TrialConfig) *TrialResult { return scenario.RunTrial(cfg) }

// Pool bounds how many simulation runs execute concurrently in the
// parallel entry points (RunTrials, RunReplicationsPool). The zero
// value sizes itself to the machine (one worker per CPU).
type Pool = runner.Pool

// RunTrials executes independent trial configurations concurrently on a
// bounded worker pool (jobs <= 0 means one worker per CPU) and returns
// the results in input order. Each run is fully isolated — its own
// scheduler, RNG, and telemetry registry — so every result, table, and
// export is identical to running the configurations sequentially.
func RunTrials(cfgs []TrialConfig, jobs int) []*TrialResult {
	results, _ := runner.Map(runner.Pool{Workers: jobs}, len(cfgs),
		func(i int) (*TrialResult, error) { return scenario.RunTrial(cfgs[i]), nil })
	return results
}

// HighwayConfig configures the extension scenario: an N-vehicle highway
// platoon whose lead brakes hard and whose followers react only to the
// EBL radio indication.
type HighwayConfig = scenario.HighwayConfig

// HighwayResult carries a completed highway run's outcomes.
type HighwayResult = scenario.HighwayResult

// BrakeIndication is one follower's outcome in a highway run.
type BrakeIndication = scenario.BrakeIndication

// DefaultHighway returns a 50-mph emergency-braking configuration with n
// vehicles on the given MAC.
func DefaultHighway(mac MACType, n int) HighwayConfig { return scenario.DefaultHighway(mac, n) }

// RunHighway executes the highway emergency-braking scenario. It returns
// an error on an unrunnable configuration (fewer than two vehicles).
func RunHighway(cfg HighwayConfig) (*HighwayResult, error) { return scenario.RunHighway(cfg) }

// DenseHighwayConfig configures the multi-lane scaling scenario: hundreds
// to thousands of vehicles in per-lane platoons under a mixed beacon and
// safety-stream load, the workload the channel's spatial-index neighbor
// culling exists for.
type DenseHighwayConfig = scenario.DenseHighwayConfig

// DenseHighwayResult carries a completed dense-highway run's outcomes.
type DenseHighwayResult = scenario.DenseHighwayResult

// DefaultDenseHighway returns an n-vehicle four-lane configuration on the
// given MAC.
func DefaultDenseHighway(mac MACType, n int) DenseHighwayConfig {
	return scenario.DefaultDenseHighway(mac, n)
}

// RunDenseHighway executes the dense multi-lane scaling scenario. It
// returns an error on an unrunnable configuration.
func RunDenseHighway(cfg DenseHighwayConfig) (*DenseHighwayResult, error) {
	return scenario.RunDenseHighway(cfg)
}

// FormatDenseSummary renders a dense-highway run's outcome in five lines:
// brake indications, collisions, safety and beacon delivery, and channel
// arrivals.
func FormatDenseSummary(r *DenseHighwayResult) string {
	notified, worst := 0, Seconds(0)
	for _, ind := range r.Indications {
		if ind.IndicationDelay >= 0 {
			notified++
			if ind.IndicationDelay > worst {
				worst = ind.IndicationDelay
			}
		}
	}
	pct := func(recv, sent int) float64 {
		if sent == 0 {
			return 0
		}
		return 100 * float64(recv) / float64(sent)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "brake indications: %d/%d followers notified, worst delay %.4f s\n",
		notified, len(r.Indications), float64(worst))
	fmt.Fprintf(&b, "collisions: %d rear-end, %d corrupted frames (MAC contention)\n", r.Collisions, r.RxCollided)
	fmt.Fprintf(&b, "safety traffic: %d sent, %d delivered (%.1f%%)\n",
		r.SafetySent, r.SafetyReceived, pct(r.SafetyReceived, r.SafetySent))
	fmt.Fprintf(&b, "beacon traffic: %d sent, %d delivered (%.1f%%)\n",
		r.BeaconSent, r.BeaconReceived, pct(r.BeaconReceived, r.BeaconSent))
	fmt.Fprintf(&b, "channel: %d arrivals offered, %d delivered, %d frequency-filtered\n",
		r.Channel.Offered, r.Channel.Delivered, r.Channel.FilteredFreq)
	return b.String()
}

// JammingConfig configures the denial-of-service experiment: a stopped
// platoon exchanging EBL status datagrams while an attacker floods the
// radio channel (the 802.11-vs-TDMA/FHSS security trade-off the paper's
// §III.E raises).
type JammingConfig = scenario.JammingConfig

// JammingResult carries a completed attack run's outcomes.
type JammingResult = scenario.JammingResult

// JamFlowResult is one flow's outcome under attack.
type JamFlowResult = scenario.JamFlowResult

// DefaultJamming returns a 3-vehicle run with a continuous single-channel
// jammer starting at t = 10 s.
func DefaultJamming(mac MACType) JammingConfig { return scenario.DefaultJamming(mac) }

// RunJamming executes the denial-of-service experiment. It returns an
// error when the attack configuration is invalid.
func RunJamming(cfg JammingConfig) (*JammingResult, error) { return scenario.RunJamming(cfg) }

// CheckViolation is one runtime invariant violation recorded by a checked
// run (the Check field of TrialConfig, HighwayConfig, JammingConfig or
// DenseHighwayConfig). A clean checked run leaves the result's Violations
// slice empty.
type CheckViolation = check.Violation

// StoppingAnalysis is the §III.E stopping-distance feasibility result.
type StoppingAnalysis = ebl.StoppingAnalysis

// PaperStoppingAnalysis runs the paper's published arithmetic: 22.4 m/s,
// 25 m separation, distance covered during the initial packet's flight.
func PaperStoppingAnalysis(initialDelay sim.Time) StoppingAnalysis {
	return ebl.PaperAnalysis(initialDelay)
}

// MPHToMS converts miles per hour to metres per second.
func MPHToMS(mph float64) float64 { return ebl.MPHToMS(mph) }

// BrakingModel parameterises the feasibility-envelope analysis (brake
// condition, driver reaction, safety margin — the factors the paper's
// §III.E lists as deciding whether the warning suffices).
type BrakingModel = ebl.BrakingModel

// EnvelopeRow is one speed's minimum-safe-gap verdict for both MACs.
type EnvelopeRow = ebl.EnvelopeRow

// DefaultBrakingModel returns dry-road braking with a 0.7 s reaction.
func DefaultBrakingModel() BrakingModel { return ebl.DefaultBrakingModel() }

// FeasibilityEnvelope sweeps speeds and reports the minimum safe following
// gap per MAC given each MAC's measured initial-packet indication delay.
func FeasibilityEnvelope(model BrakingModel, delayTDMA, delay80211 sim.Time, speedsMS []float64) []EnvelopeRow {
	return ebl.FeasibilityEnvelope(model, delayTDMA, delay80211, speedsMS)
}

// FormatEnvelopeTable renders envelope rows as an aligned text table.
func FormatEnvelopeTable(rows []EnvelopeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %8s | %12s %10s | %12s %10s\n",
		"v (m/s)", "v (mph)", "TDMA gap(m)", "25m safe?", "802.11 gap(m)", "25m safe?")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8.1f %8.1f | %12.1f %10v | %12.1f %10v\n",
			r.SpeedMS, r.SpeedMS/0.44704, r.MinGapTDMA, r.SafeAt25TDMA, r.MinGap80211, r.SafeAt2580211)
	}
	return b.String()
}

// Seconds converts a float64 second count into simulated time (for
// TrialConfig.Duration overrides).
func Seconds(s float64) sim.Time { return sim.Time(s) }

// SpanEvent is one causal-tracing lifecycle step of one packet (emit,
// queue enq/deq, MAC wait, transmit with airtime, loss with cause,
// forward, delivery). Arm collection with the Spans field of TrialConfig,
// HighwayConfig, JammingConfig or DenseHighwayConfig; the run's events
// land on the result's Spans field in scheduler order.
type SpanEvent = span.Event

// LatencyBreakdown decomposes one delivered packet's end-to-end delay into
// queueing, contention, airtime, retransmit, rerouting, and residual
// components.
type LatencyBreakdown = span.Breakdown

// LatencyAggregate is the mean latency decomposition over delivered
// packets.
type LatencyAggregate = span.Aggregate

// AnalyzeSpans folds a run's span events into one latency breakdown per
// delivered packet.
func AnalyzeSpans(events []SpanEvent) []LatencyBreakdown { return span.Analyze(events) }

// SummarizeBreakdowns averages per-packet breakdowns into one aggregate.
func SummarizeBreakdowns(bs []LatencyBreakdown) LatencyAggregate { return span.Summarize(bs) }

// FormatLatencyComparison renders aggregates side by side (one labelled
// column each) as an aligned per-component milliseconds table.
func FormatLatencyComparison(labels []string, aggs []LatencyAggregate) string {
	return span.FormatComparison(labels, aggs)
}

// WriteSpans writes a run's span events (run with Spans set) to path as
// NDJSON, one event object per line in scheduler order. The bytes are
// identical for a given configuration at any RunTrials parallelism.
func WriteSpans(path string, events []SpanEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("vanetsim: %w", err)
	}
	if err := span.WriteNDJSON(f, events); err != nil {
		f.Close()
		return fmt.Errorf("vanetsim: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("vanetsim: close spans: %w", err)
	}
	return nil
}

// WriteSpansChrome writes a run's span events to path in the Chrome
// trace-event JSON format (load via chrome://tracing or Perfetto; one
// thread track per node).
func WriteSpansChrome(path string, events []SpanEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("vanetsim: %w", err)
	}
	if err := span.WriteChrome(f, events); err != nil {
		f.Close()
		return fmt.Errorf("vanetsim: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("vanetsim: close spans: %w", err)
	}
	return nil
}

// Telemetry is a cross-layer metrics snapshot: counters, gauges with
// high-water marks, latency histograms, and time series harvested from
// every stack layer plus the scheduler. Enable collection with the
// Telemetry field of TrialConfig, HighwayConfig, JammingConfig or
// DenseHighwayConfig; render with FormatText, NDJSON, or Prometheus.
type Telemetry = obs.Snapshot

// NewTelemetryRegistry returns a live registry for callers recording
// their own metrics, such as ebltrace's offline trace summary.
func NewTelemetryRegistry() *obs.Registry { return obs.NewRegistry() }
