// Package canon canonicalises vanetsimd's JSON scenario requests and
// derives their content hash — the key of the service's result cache.
//
// Every run in this repository is a deterministic pure function of its
// configuration: the same canonical config always produces the same
// result bytes, at any worker count. The cache key
// must therefore depend on exactly the semantic configuration and
// nothing else. Canonicalisation enforces that in three steps:
//
//  1. Decode the request JSON into typed structs, so field order in the
//     wire form is irrelevant.
//  2. Apply every default (preset trials, dense-highway defaults, the
//     paper's degradation grid) before hashing, so an elided field and
//     an explicitly spelled-out default hash identically.
//  3. Encode the fully resolved configuration as key=value lines in
//     field declaration order (AppendBinary) and hash that — never the
//     incoming JSON bytes.
//
// The encoding is derived from `canon` struct tags on the four hashed
// types: scenario.TrialConfig (with its fault.Plan),
// scenario.DenseHighwayConfig, ReplicationSpec and DegradationSpec. A
// tag is the field's key, or on a nested struct a key prefix; canon:"-"
// marks an execution- or output-only knob (the spatial-culling toggle,
// span tracing, trace and animation capture) that is proven
// byte-identical on output and so must not split the cache. An exported
// field without a tag panics at package init, and canon_test.go walks
// the same tags to prove every keyed field moves the hash and every "-"
// field does not. Adding a hashed field is one tagged line. There is no
// normalized wire form: the resolved config structs are the canonical
// form.
//
// The hash hot path is allocation-free: AppendBinary appends into a
// caller-reused buffer with strconv appenders, and sha256.Sum256 runs
// without heap allocation (BenchmarkCanonicalHash pins 0 allocs/op).
package canon

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"

	"vanetsim"
	"vanetsim/internal/fault"
	"vanetsim/internal/packet"
	"vanetsim/internal/scenario"
	"vanetsim/internal/sim"
	"vanetsim/internal/stats/seqstop"
)

// Version tags the canonical encoding and the artifact schema derived
// from it. Bumping it invalidates every cached result, which is exactly
// what a change to either the encoding or the report rendering needs.
const Version = "vanetsimd/v1"

// Request is the wire form of one simulation request. Exactly one of
// the kind-specific payloads must be set, matching Kind.
type Request struct {
	Kind        string              `json:"kind"` // "trial", "dense", "degradation" or "replication"
	Trial       *TrialRequest       `json:"trial,omitempty"`
	Dense       *DenseRequest       `json:"dense,omitempty"`
	Degradation *DegradationRequest `json:"degradation,omitempty"`
	Replication *ReplicationRequest `json:"replication,omitempty"`
}

// TrialRequest asks for one run of the paper's intersection scenario.
// Trial 1–3 select the paper's presets; 0 builds a custom configuration
// from MAC and Packet (which are only valid with Trial = 0, exactly as
// cmd/vanetsim's -mac/-packet flags pair with -trial 0).
type TrialRequest struct {
	Trial     int           `json:"trial"`
	MAC       string        `json:"mac,omitempty"`
	Packet    int           `json:"packet,omitempty"`
	DurationS float64       `json:"duration_s,omitempty"` // 0 = paper default
	Seed      uint64        `json:"seed,omitempty"`       // 0 = default
	Faults    *FaultRequest `json:"faults,omitempty"`
	Telemetry bool          `json:"telemetry,omitempty"` // include telemetry in the artifact
	Check     bool          `json:"check,omitempty"`     // arm the invariant checker
}

// FaultRequest is a trial's impairment recipe (the -loss/-ber/
// -burst-loss/-shadow/-outage flag family as JSON).
type FaultRequest struct {
	Loss      float64         `json:"loss,omitempty"`
	BER       float64         `json:"ber,omitempty"`
	BurstLoss float64         `json:"burst_loss,omitempty"`
	BurstLen  float64         `json:"burst_len,omitempty"` // 0 = default 4
	ShadowDB  float64         `json:"shadow_db,omitempty"`
	Outages   []OutageRequest `json:"outages,omitempty"`
}

// OutageRequest schedules one node's radio off the air.
type OutageRequest struct {
	Node      packet.NodeID `json:"node"`
	StartS    float64       `json:"start_s"`
	DurationS float64       `json:"duration_s"`
}

// DenseRequest asks for one run of the dense multi-lane highway
// scenario. Zero fields take DefaultDenseHighway's values;
// BeaconFraction is a pointer because an explicit 0 (no beacons) is
// semantically different from "use the 0.25 default".
type DenseRequest struct {
	Vehicles       int      `json:"vehicles"`
	MAC            string   `json:"mac,omitempty"`
	Lanes          int      `json:"lanes,omitempty"`
	PlatoonLen     int      `json:"platoon_len,omitempty"`
	BeaconFraction *float64 `json:"beacon_fraction,omitempty"`
	BeaconJitter   float64  `json:"beacon_jitter,omitempty"`
	SafetyDepth    int      `json:"safety_depth,omitempty"`
	DurationS      float64  `json:"duration_s,omitempty"`
	Seed           uint64   `json:"seed,omitempty"`
	Telemetry      bool     `json:"telemetry,omitempty"`
	Check          bool     `json:"check,omitempty"`
}

// ReplicationRequest asks for an adaptive-precision replication study:
// the base trial re-run under deterministically derived seeds until
// every headline metric's 95% CI relative half-width is at most
// Tolerance, or the MaxReps budget is exhausted ("give me this answer
// to ±2%"). The base trial's seed roots the derived seed stream; its
// telemetry flag must be off (a study has no single telemetry
// snapshot), while check applies to every replication.
type ReplicationRequest struct {
	Trial     *TrialRequest `json:"trial"`
	Tolerance float64       `json:"tolerance"`          // relative half-width, e.g. 0.05 = ±5%
	MinReps   int           `json:"min_reps,omitempty"` // 0 = 4; at least 2
	MaxReps   int           `json:"max_reps,omitempty"` // 0 = 64
}

// DegradationRequest asks for the fault-degradation sweep: the base
// trial on MAC swept across LossProbs (default: the paper grid).
type DegradationRequest struct {
	MAC       string         `json:"mac,omitempty"`
	LossProbs []float64      `json:"loss_probs,omitempty"`
	BurstLen  float64        `json:"burst_len,omitempty"` // <= 1 = independent losses
	ShadowDB  float64        `json:"shadow_db,omitempty"`
	Outage    *OutageRequest `json:"outage,omitempty"`
	DurationS float64        `json:"duration_s,omitempty"` // 0 = default 80
	Seed      uint64         `json:"seed,omitempty"`
	Check     bool           `json:"check,omitempty"`
}

// Decode reads one Request from r, rejecting unknown fields and
// trailing garbage.
func Decode(r io.Reader) (Request, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return Request{}, fmt.Errorf("canon: decode request: %w", err)
	}
	if dec.More() {
		return Request{}, fmt.Errorf("canon: trailing data after request object")
	}
	return req, nil
}

// Request kinds, as they appear on the wire and in Canonical.Kind.
const (
	KindTrial       = "trial"
	KindDense       = "dense"
	KindDegradation = "degradation"
	KindReplication = "replication"
)

// ReplicationSpec is the fully resolved adaptive-precision study: the
// base trial (whose Seed roots the derived seed stream) plus the
// stopping parameters. Batch size and worker count are execution-only
// (the study is byte-identical at any value) and deliberately absent.
type ReplicationSpec struct {
	Base      scenario.TrialConfig `canon:""`
	Tolerance float64              `canon:"rep.tolerance"`
	MinReps   int                  `canon:"rep.min_reps"`
	MaxReps   int                  `canon:"rep.max_reps"`
}

// DegradationSpec is the fully resolved degradation sweep.
type DegradationSpec struct {
	Base      scenario.TrialConfig `canon:""` // Telemetry forced on (the sweep reads fault counters)
	LossProbs []float64            `canon:"deg.loss_probs"`
	BurstLen  float64              `canon:"deg.burst_len"`
	ShadowDB  float64              `canon:"deg.shadow_db"`
	Outages   []fault.Outage       `canon:"deg.outage"` // at most one
}

// Config returns the library sweep the spec describes.
func (s DegradationSpec) Config() vanetsim.DegradationConfig {
	cfg := vanetsim.DegradationConfig{
		Base:          s.Base,
		LossProbs:     s.LossProbs,
		BurstLen:      s.BurstLen,
		ShadowSigmaDB: s.ShadowDB,
	}
	if len(s.Outages) > 0 {
		cfg.Outage = s.Outages[0]
	}
	return cfg
}

// Canonical is a fully resolved request: defaults applied, fields
// validated, execution-only knobs zeroed. Exactly one of Trial, Dense,
// Deg is meaningful, selected by Kind.
type Canonical struct {
	Kind  string
	Trial scenario.TrialConfig
	Dense scenario.DenseHighwayConfig
	Deg   DegradationSpec
	Rep   ReplicationSpec
}

// Cost is a request's admission-control weight, judged against the
// server's per-job budgets before the job is queued.
type Cost struct {
	SimSeconds float64 // total simulated seconds across all runs
	Vehicles   int     // largest single-run fleet size
	Runs       int     // independent simulation runs
}

// Canonicalize validates req, applies every default, and returns the
// canonical form. All errors are client errors (bad requests).
func Canonicalize(req Request) (*Canonical, error) {
	kinds := 0
	for _, set := range []bool{req.Trial != nil, req.Dense != nil, req.Degradation != nil, req.Replication != nil} {
		if set {
			kinds++
		}
	}
	if kinds > 1 {
		return nil, fmt.Errorf("canon: request sets %d kind payloads, want exactly one", kinds)
	}
	switch req.Kind {
	case "trial":
		if req.Trial == nil {
			return nil, fmt.Errorf(`canon: kind "trial" needs a "trial" payload`)
		}
		return canonTrial(*req.Trial)
	case "dense":
		if req.Dense == nil {
			return nil, fmt.Errorf(`canon: kind "dense" needs a "dense" payload`)
		}
		return canonDense(*req.Dense)
	case "degradation":
		if req.Degradation == nil {
			return nil, fmt.Errorf(`canon: kind "degradation" needs a "degradation" payload`)
		}
		return canonDegradation(*req.Degradation)
	case "replication":
		if req.Replication == nil {
			return nil, fmt.Errorf(`canon: kind "replication" needs a "replication" payload`)
		}
		return canonReplication(*req.Replication)
	case "":
		return nil, fmt.Errorf(`canon: missing "kind" (want "trial", "dense", "degradation" or "replication")`)
	default:
		return nil, fmt.Errorf("canon: unknown kind %q", req.Kind)
	}
}

// macName is the canonical wire spelling of a MAC type.
func macName(m scenario.MACType) string {
	if m == scenario.MAC80211 {
		return "802.11"
	}
	return "tdma"
}

// duration resolves an optional duration override: 0 means def. The
// config's Validate judges the result.
func duration(overrideS float64, def sim.Time) sim.Time {
	if overrideS == 0 {
		return def
	}
	return sim.Time(overrideS)
}

// canonFaults resolves an optional impairment recipe; TrialConfig.Validate
// judges it. Outages are sorted by (node, start, duration): Plan.Validate
// keeps one node's windows apart, so their order never changes the run,
// and two spellings of the same plan hash identically.
func canonFaults(fr *FaultRequest) fault.Plan {
	if fr == nil {
		return fault.Plan{}
	}
	burstLen := fr.BurstLen
	if burstLen == 0 {
		burstLen = 4 // the -burst-len default
	}
	plan := fault.Plan{
		Bernoulli:     fault.Bernoulli{LossProb: fr.Loss, BitErrorRate: fr.BER},
		Burst:         fault.Burst(fr.BurstLoss, burstLen),
		ShadowSigmaDB: fr.ShadowDB,
	}
	for _, o := range fr.Outages {
		plan.Outages = append(plan.Outages, outage(o))
	}
	sort.Slice(plan.Outages, func(i, j int) bool {
		a, b := plan.Outages[i], plan.Outages[j]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Duration < b.Duration
	})
	return plan
}

func outage(o OutageRequest) fault.Outage {
	return fault.Outage{
		Node:     o.Node,
		Start:    sim.Time(o.StartS),
		Duration: sim.Time(o.DurationS),
	}
}

func canonTrial(tr TrialRequest) (*Canonical, error) {
	var cfg scenario.TrialConfig
	switch tr.Trial {
	case 1:
		cfg = scenario.Trial1()
	case 2:
		cfg = scenario.Trial2()
	case 3:
		cfg = scenario.Trial3()
	case 0:
		cfg = scenario.Trial1()
		cfg.Name = "custom"
		mac, err := scenario.ParseMAC(tr.MAC)
		if err != nil {
			return nil, fmt.Errorf("canon: %w", err)
		}
		cfg.MAC = mac
		if tr.Packet != 0 {
			cfg.PacketSize = tr.Packet
		}
	default:
		return nil, fmt.Errorf("canon: unknown trial %d (want 1..3, or 0 for custom)", tr.Trial)
	}
	if tr.Trial != 0 && (tr.MAC != "" || tr.Packet != 0) {
		return nil, fmt.Errorf("canon: mac/packet overrides need trial = 0 (trial %d fixes both)", tr.Trial)
	}
	cfg.Duration = duration(tr.DurationS, cfg.Duration)
	if tr.Seed != 0 {
		cfg.Seed = tr.Seed
	}
	cfg.Faults = canonFaults(tr.Faults)
	cfg.Telemetry = tr.Telemetry
	cfg.Check = tr.Check
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("canon: %w", err)
	}
	return &Canonical{Kind: "trial", Trial: cfg}, nil
}

func canonDense(dr DenseRequest) (*Canonical, error) {
	mac, err := scenario.ParseMAC(dr.MAC)
	if err != nil {
		return nil, fmt.Errorf("canon: %w", err)
	}
	cfg := scenario.DefaultDenseHighway(mac, dr.Vehicles)
	if dr.Lanes != 0 {
		cfg.Lanes = dr.Lanes
	}
	if dr.PlatoonLen != 0 {
		cfg.PlatoonLen = dr.PlatoonLen
	}
	if dr.BeaconFraction != nil {
		cfg.BeaconFraction = *dr.BeaconFraction
	}
	cfg.BeaconJitter = dr.BeaconJitter
	cfg.SafetyDepth = dr.SafetyDepth
	cfg.Duration = duration(dr.DurationS, cfg.Duration)
	if dr.Seed != 0 {
		cfg.Seed = dr.Seed
	}
	cfg.Telemetry = dr.Telemetry
	cfg.Check = dr.Check
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("canon: %w", err)
	}
	return &Canonical{Kind: "dense", Dense: cfg}, nil
}

func canonDegradation(gr DegradationRequest) (*Canonical, error) {
	mac, err := scenario.ParseMAC(gr.MAC)
	if err != nil {
		return nil, fmt.Errorf("canon: %w", err)
	}
	def := vanetsim.DefaultDegradation(mac)
	base := def.Base
	base.Duration = duration(gr.DurationS, base.Duration)
	if gr.Seed != 0 {
		base.Seed = gr.Seed
	}
	base.Telemetry = true // the sweep reads fault counters
	base.Check = gr.Check

	spec := DegradationSpec{Base: base, LossProbs: def.LossProbs, BurstLen: gr.BurstLen, ShadowDB: gr.ShadowDB}
	if len(gr.LossProbs) > 0 {
		spec.LossProbs = append([]float64(nil), gr.LossProbs...)
	}
	if gr.Outage != nil {
		// The library reads a zero-value outage as "none", so an explicit
		// one is judged as a window of its own.
		spec.Outages = []fault.Outage{outage(*gr.Outage)}
		if err := (fault.Plan{Outages: spec.Outages}).Validate(); err != nil {
			return nil, fmt.Errorf("canon: degradation.outage: %w", err)
		}
	}
	if err := spec.Config().Validate(); err != nil {
		return nil, fmt.Errorf("canon: %w", err)
	}
	return &Canonical{Kind: "degradation", Deg: spec}, nil
}

func canonReplication(rr ReplicationRequest) (*Canonical, error) {
	if rr.Trial == nil {
		return nil, fmt.Errorf(`canon: replication needs a "trial" base config`)
	}
	if rr.Trial.Telemetry {
		return nil, fmt.Errorf("canon: replication.trial.telemetry is not supported (a study has no single telemetry snapshot)")
	}
	base, err := canonTrial(*rr.Trial)
	if err != nil {
		return nil, err
	}
	// The open interval catches the classic unit mistake of sending 5
	// for ±5% (tolerances are relative fractions, not percentages); NaN
	// fails it too.
	if !(rr.Tolerance > 0 && rr.Tolerance < 1) {
		return nil, fmt.Errorf("canon: replication.tolerance = %v outside (0, 1) — a relative half-width fraction, e.g. 0.05 for ±5%%", rr.Tolerance)
	}
	// The library's own rule resolves the defaults and the remaining
	// checks, so the service accepts exactly the studies the library can
	// run.
	rule, err := seqstop.Config{Tolerance: rr.Tolerance, MinReps: rr.MinReps, MaxReps: rr.MaxReps}.Resolve()
	if err != nil {
		return nil, fmt.Errorf("canon: replication: %w", err)
	}
	return &Canonical{Kind: "replication", Rep: ReplicationSpec{
		Base:      base.Trial,
		Tolerance: rule.Tolerance,
		MinReps:   rule.MinReps,
		MaxReps:   rule.MaxReps,
	}}, nil
}

// Cost returns the request's admission-control weight.
func (c *Canonical) Cost() Cost {
	switch c.Kind {
	case "trial":
		return Cost{
			SimSeconds: float64(c.Trial.Duration),
			Vehicles:   2 * c.Trial.PlatoonSize,
			Runs:       1,
		}
	case "dense":
		return Cost{
			SimSeconds: float64(c.Dense.Duration),
			Vehicles:   c.Dense.Vehicles,
			Runs:       1,
		}
	case "replication":
		// Admission control must budget for the worst case: the full
		// replication budget, even though a converging study stops early.
		return Cost{
			SimSeconds: float64(c.Rep.Base.Duration) * float64(c.Rep.MaxReps),
			Vehicles:   2 * c.Rep.Base.PlatoonSize,
			Runs:       c.Rep.MaxReps,
		}
	default:
		n := len(c.Deg.LossProbs)
		return Cost{
			SimSeconds: float64(c.Deg.Base.Duration) * float64(n),
			Vehicles:   2 * c.Deg.Base.PlatoonSize,
			Runs:       n,
		}
	}
}

// Hash is a canonical request's content address.
type Hash [sha256.Size]byte

// String returns the lowercase hex form — the cache key and URL token.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// ParseHash parses the lowercase-hex form back into a Hash.
func ParseHash(s string) (Hash, error) {
	var h Hash
	if len(s) != hex.EncodedLen(len(h)) {
		return h, fmt.Errorf("canon: hash %q has length %d, want %d", s, len(s), hex.EncodedLen(len(h)))
	}
	if _, err := hex.Decode(h[:], []byte(s)); err != nil {
		return h, fmt.Errorf("canon: hash %q: %w", s, err)
	}
	return h, nil
}

// Hash returns the content address of the canonical form.
func (c *Canonical) Hash() Hash {
	var buf [1024]byte
	return sha256.Sum256(c.AppendBinary(buf[:0]))
}

// RepEntryHash returns the content address of ONE replication of a
// replication study: the study's base trial with its seed replaced by
// the derived per-replication seed. The entry key deliberately excludes
// the study parameters (tolerance, min/max reps) — a replication's
// measurements depend only on (config, seed) — so a tighter-tolerance
// resubmission addresses the very same entries and re-runs only the
// additional replications. Observation-only knobs (telemetry, check)
// are zeroed too: a checked study and an unchecked one measure the same
// numbers, so they share entries.
func (c *Canonical) RepEntryHash(seed uint64) Hash {
	t := c.Rep.Base
	t.Seed = seed
	t.Telemetry = false
	t.Check = false
	var buf [1024]byte
	dst := append(buf[:0], Version...)
	dst = append(dst, '\n')
	dst = appendStr(dst, "kind", "replication-entry")
	dst = trialSchema.append(dst, reflect.ValueOf(&t).Elem())
	return sha256.Sum256(dst)
}

// AppendBinary appends the canonical encoding to dst and returns the
// extended slice. The encoding is versioned key=value lines in field
// declaration order; it allocates nothing beyond dst growth, so reusing
// dst across calls makes the hash hot path allocation-free.
func (c *Canonical) AppendBinary(dst []byte) []byte {
	dst = append(dst, Version...)
	dst = append(dst, '\n')
	dst = appendStr(dst, "kind", c.Kind)
	if c.Kind == KindDegradation {
		// The sweep's MAC leads: it selects the base trial's preset.
		dst = appendStr(dst, "deg.mac", macName(c.Deg.Base.MAC))
	}
	s, v := c.root()
	return s.append(dst, v)
}

// root returns the schema of c's kind and the resolved config it walks.
func (c *Canonical) root() (*schema, reflect.Value) {
	switch c.Kind {
	case KindTrial:
		return &trialSchema, reflect.ValueOf(&c.Trial).Elem()
	case KindDense:
		return &denseSchema, reflect.ValueOf(&c.Dense).Elem()
	case KindReplication:
		return &repSchema, reflect.ValueOf(&c.Rep).Elem()
	default:
		return &degSchema, reflect.ValueOf(&c.Deg).Elem()
	}
}

func appendStr(dst []byte, key, v string) []byte {
	dst = append(dst, key...)
	dst = append(dst, '=')
	dst = append(dst, v...)
	return append(dst, '\n')
}
