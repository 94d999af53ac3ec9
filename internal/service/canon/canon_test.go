package canon

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"vanetsim/internal/scenario"
)

func mustCanon(t *testing.T, body string) *Canonical {
	t.Helper()
	req, err := Decode(strings.NewReader(body))
	if err != nil {
		t.Fatalf("Decode(%s): %v", body, err)
	}
	c, err := Canonicalize(req)
	if err != nil {
		t.Fatalf("Canonicalize(%s): %v", body, err)
	}
	return c
}

func TestFieldOrderDoesNotChangeHash(t *testing.T) {
	a := mustCanon(t, `{"kind":"trial","trial":{"trial":2,"seed":7,"duration_s":40}}`)
	b := mustCanon(t, `{"trial":{"duration_s":40,"seed":7,"trial":2},"kind":"trial"}`)
	if a.Hash() != b.Hash() {
		t.Fatalf("field reordering changed the hash:\n%q\n%q", a.AppendBinary(nil), b.AppendBinary(nil))
	}
}

func TestDefaultElisionDoesNotChangeHash(t *testing.T) {
	// Trial 1's defaults spelled out must hash like trial 1 elided.
	a := mustCanon(t, `{"kind":"trial","trial":{"trial":1}}`)
	b := mustCanon(t, `{"kind":"trial","trial":{"trial":1,"duration_s":200,"seed":1}}`)
	if a.Hash() != b.Hash() {
		t.Fatalf("explicit defaults changed the hash:\n%q\n%q", a.AppendBinary(nil), b.AppendBinary(nil))
	}
	if a.Trial.Duration != 200 || a.Trial.Seed != 1 {
		t.Fatalf("trial 1 defaults not applied: %+v", a.Trial)
	}
}

func TestDistinctConfigsHashDistinctly(t *testing.T) {
	seen := map[Hash]string{}
	for _, body := range []string{
		`{"kind":"trial","trial":{"trial":1}}`,
		`{"kind":"trial","trial":{"trial":2}}`,
		`{"kind":"trial","trial":{"trial":3}}`,
		`{"kind":"trial","trial":{"trial":1,"seed":2}}`,
		`{"kind":"trial","trial":{"trial":1,"duration_s":40}}`,
		`{"kind":"trial","trial":{"trial":1,"telemetry":true}}`,
		`{"kind":"trial","trial":{"trial":1,"check":true}}`,
		`{"kind":"trial","trial":{"trial":1,"faults":{"loss":0.05}}}`,
		`{"kind":"trial","trial":{"trial":0}}`,
		`{"kind":"trial","trial":{"trial":0,"mac":"802.11","packet":500}}`,
		`{"kind":"dense","dense":{"vehicles":240}}`,
		`{"kind":"dense","dense":{"vehicles":240,"mac":"802.11"}}`,
		`{"kind":"dense","dense":{"vehicles":240,"beacon_fraction":0}}`,
		`{"kind":"degradation","degradation":{}}`,
		`{"kind":"degradation","degradation":{"mac":"802.11"}}`,
		`{"kind":"degradation","degradation":{"loss_probs":[0,0.5]}}`,
		`{"kind":"replication","replication":{"trial":{"trial":1},"tolerance":0.05}}`,
		`{"kind":"replication","replication":{"trial":{"trial":1},"tolerance":0.02}}`,
		`{"kind":"replication","replication":{"trial":{"trial":1},"tolerance":0.05,"max_reps":16}}`,
		`{"kind":"replication","replication":{"trial":{"trial":3,"duration_s":40},"tolerance":0.05}}`,
	} {
		h := mustCanon(t, body).Hash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("hash collision between %s and %s", prev, body)
		}
		seen[h] = body
	}
}

// perturb changes v so its canonical encoding differs: numbers step to
// the next value, booleans flip, strings gain a suffix, a slice gains
// one perturbed element, and a struct has every field perturbed.
func perturb(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		e := reflect.New(v.Type().Elem()).Elem()
		perturb(e)
		v.Set(reflect.Append(v, e))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				perturb(v.Field(i))
			}
		}
	default:
		panic("no perturbation for kind " + v.Kind().String())
	}
}

// perturbedHashes perturbs each of leaves in turn on a copy of c and
// returns the names of the leaves whose change left c's hash unchanged
// (moved = false) or moved it (moved = true).
func perturbedHashes(c *Canonical, leaves []leaf, moved bool) []string {
	want := c.Hash()
	var names []string
	for _, l := range leaves {
		p := *c
		_, v := p.root()
		perturb(v.FieldByIndex(l.index))
		if (p.Hash() != want) == moved {
			names = append(names, l.name)
		}
	}
	return names
}

// TestCanonicalFieldCoverage walks each kind's `canon` tags: changing a
// keyed field must move the hash, and changing a canon:"-" field must
// not. An exported field with no tag panics schema construction at
// package init (TestSchemaRejectsUntaggedField), so no config field can
// go unclassified.
func TestCanonicalFieldCoverage(t *testing.T) {
	for _, body := range []string{
		`{"kind":"trial","trial":{"trial":1}}`,
		`{"kind":"dense","dense":{"vehicles":240}}`,
		`{"kind":"degradation","degradation":{}}`,
		`{"kind":"replication","replication":{"trial":{"trial":1},"tolerance":0.05}}`,
	} {
		c := mustCanon(t, body)
		t.Run(c.Kind, func(t *testing.T) {
			s, _ := c.root()
			for _, f := range perturbedHashes(c, s.hashed, false) {
				t.Errorf("changing keyed field %s left the hash unchanged", f)
			}
			for _, f := range perturbedHashes(c, s.skipped, true) {
				t.Errorf(`changing canon:"-" field %s changed the hash`, f)
			}
		})
	}
}

func TestSchemaRejectsUntaggedField(t *testing.T) {
	type inner struct {
		Gain float64
	}
	type config struct {
		Speed float64 `canon:"speed"`
		Radio inner   `canon:"radio."`
	}
	defer func() {
		if recover() == nil {
			t.Fatal("schema accepted an exported field with no canon tag")
		}
	}()
	schemaOf(reflect.TypeOf(config{}))
}

func TestOutageOrderNormalized(t *testing.T) {
	a := mustCanon(t, `{"kind":"trial","trial":{"trial":1,"faults":{"outages":[{"node":4,"start_s":10,"duration_s":3},{"node":1,"start_s":22,"duration_s":5}]}}}`)
	b := mustCanon(t, `{"kind":"trial","trial":{"trial":1,"faults":{"outages":[{"node":1,"start_s":22,"duration_s":5},{"node":4,"start_s":10,"duration_s":3}]}}}`)
	if a.Hash() != b.Hash() {
		t.Fatalf("outage order changed the hash")
	}
}

func TestMACSpellingsNormalized(t *testing.T) {
	variants := []string{"802.11", "dcf", "80211", "DCF"}
	want := mustCanon(t, `{"kind":"dense","dense":{"vehicles":48,"mac":"802.11"}}`).Hash()
	for _, v := range variants {
		got := mustCanon(t, `{"kind":"dense","dense":{"vehicles":48,"mac":"`+v+`"}}`).Hash()
		if got != want {
			t.Fatalf("MAC spelling %q hashes differently", v)
		}
	}
}

func TestCanonicalizeRejects(t *testing.T) {
	for _, body := range []string{
		`{}`,
		`{"kind":"warp"}`,
		`{"kind":"trial"}`,
		`{"kind":"trial","dense":{"vehicles":10}}`,
		`{"kind":"trial","trial":{"trial":4}}`,
		`{"kind":"trial","trial":{"trial":1,"mac":"802.11"}}`,
		`{"kind":"trial","trial":{"trial":1,"packet":500}}`,
		`{"kind":"trial","trial":{"trial":0,"mac":"token-ring"}}`,
		`{"kind":"trial","trial":{"trial":1,"duration_s":-5}}`,
		`{"kind":"trial","trial":{"trial":1,"faults":{"loss":1.5}}}`,
		`{"kind":"trial","trial":{"trial":1,"faults":{"burst_loss":-0.1}}}`,
		`{"kind":"trial","trial":{"trial":1,"faults":{"burst_loss":0.1,"burst_len":-3}}}`,
		`{"kind":"trial","trial":{"trial":1,"faults":{"outages":[{"node":-1,"start_s":0,"duration_s":1}]}}}`,
		`{"kind":"trial","trial":{"trial":1,"faults":{"outages":[{"node":1,"start_s":-5,"duration_s":3}]}}}`,
		`{"kind":"trial","trial":{"trial":1,"faults":{"outages":[{"node":1,"start_s":5,"duration_s":0}]}}}`,
		// A node wider than packet.NodeID once wrapped onto node 1, and a
		// node the trial does not have once ran as radio-down time.
		`{"kind":"trial","trial":{"trial":1,"faults":{"outages":[{"node":4294967297,"start_s":10,"duration_s":5}]}}}`,
		`{"kind":"trial","trial":{"trial":1,"faults":{"outages":[{"node":6,"start_s":10,"duration_s":5}]}}}`,
		`{"kind":"trial","trial":{"trial":3,"faults":{"outages":[{"node":99,"start_s":10,"duration_s":5}]}}}`,
		// One node's windows may neither touch nor overlap: the radio's
		// edges would share a timestamp or nest, and order would matter.
		`{"kind":"trial","trial":{"trial":1,"faults":{"outages":[{"node":1,"start_s":10,"duration_s":5},{"node":1,"start_s":15,"duration_s":5}]}}}`,
		`{"kind":"trial","trial":{"trial":1,"faults":{"outages":[{"node":1,"start_s":10,"duration_s":10},{"node":1,"start_s":12,"duration_s":3}]}}}`,
		// A mean burst below one frame once ran silently as one frame.
		`{"kind":"trial","trial":{"trial":1,"faults":{"burst_loss":0.1,"burst_len":0.5}}}`,
		`{"kind":"trial","trial":{"trial":1,"faults":{"burst_loss":1.5}}}`,
		// A loss out of reach at this burst length once ran at loss 0.5.
		`{"kind":"trial","trial":{"trial":1,"faults":{"burst_loss":0.9,"burst_len":1}}}`,
		`{"kind":"trial","trial":{"trial":1,"faults":{"shadow_db":-1}}}`,
		`{"kind":"trial","trial":{"trial":0,"packet":-5}}`,
		`{"kind":"dense","dense":{"vehicles":1}}`,
		`{"kind":"dense","dense":{"vehicles":48,"beacon_jitter":1}}`,
		`{"kind":"dense","dense":{"vehicles":48,"beacon_fraction":2}}`,
		`{"kind":"dense","dense":{"vehicles":48,"platoon_len":1}}`,
		`{"kind":"dense","dense":{"vehicles":48,"lanes":-1}}`,
		`{"kind":"dense","dense":{"vehicles":48,"safety_depth":-1}}`,
		`{"kind":"dense","dense":{"vehicles":48,"duration_s":-1}}`,
		`{"kind":"degradation","degradation":{"loss_probs":[2]}}`,
		`{"kind":"degradation","degradation":{"loss_probs":[0,0.1,2],"burst_len":4}}`,
		`{"kind":"degradation","degradation":{"burst_len":-1}}`,
		`{"kind":"degradation","degradation":{"shadow_db":-1}}`,
		`{"kind":"degradation","degradation":{"duration_s":-1}}`,
		`{"kind":"degradation","degradation":{"outage":{"node":1,"start_s":5,"duration_s":0}}}`,
		`{"kind":"degradation","degradation":{"outage":{"node":0,"start_s":0,"duration_s":0}}}`,
		`{"kind":"degradation","degradation":{"outage":{"node":99,"start_s":10,"duration_s":5}}}`,
		`{"kind":"replication"}`,
		`{"kind":"replication","replication":{"tolerance":0.05}}`,
		`{"kind":"replication","replication":{"trial":{"trial":1},"tolerance":0}}`,
		`{"kind":"replication","replication":{"trial":{"trial":1},"tolerance":5}}`,
		`{"kind":"replication","replication":{"trial":{"trial":1},"tolerance":1}}`,
		`{"kind":"replication","replication":{"trial":{"trial":1},"tolerance":-0.05}}`,
		`{"kind":"replication","replication":{"trial":{"trial":1},"tolerance":0.05,"min_reps":1}}`,
		`{"kind":"replication","replication":{"trial":{"trial":1},"tolerance":0.05,"min_reps":8,"max_reps":4}}`,
		`{"kind":"replication","replication":{"trial":{"trial":1,"telemetry":true},"tolerance":0.05}}`,
		`{"kind":"replication","replication":{"trial":{"trial":4},"tolerance":0.05}}`,
	} {
		req, err := Decode(strings.NewReader(body))
		if err != nil {
			continue // decode-level rejection is fine too
		}
		if _, err := Canonicalize(req); err == nil {
			t.Errorf("Canonicalize(%s) accepted, want error", body)
		}
	}
}

func TestDecodeRejectsUnknownFieldsAndTrailer(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{"kind":"trial","trial":{"trial":1,"warp":9}}`)); err == nil {
		t.Fatalf("unknown field accepted")
	}
	if _, err := Decode(strings.NewReader(`{"kind":"trial","trial":{"trial":1}} trailing`)); err == nil {
		t.Fatalf("trailing data accepted")
	}
}

func TestCost(t *testing.T) {
	c := mustCanon(t, `{"kind":"degradation","degradation":{"duration_s":10,"loss_probs":[0,0.1,0.2]}}`)
	cost := c.Cost()
	if cost.Runs != 3 || cost.SimSeconds != 30 {
		t.Fatalf("degradation cost = %+v, want 3 runs / 30 sim-seconds", cost)
	}
	d := mustCanon(t, `{"kind":"dense","dense":{"vehicles":240,"duration_s":8}}`).Cost()
	if d.Vehicles != 240 || d.SimSeconds != 8 || d.Runs != 1 {
		t.Fatalf("dense cost = %+v", d)
	}
}

func TestReplicationDefaultsAndCost(t *testing.T) {
	c := mustCanon(t, `{"kind":"replication","replication":{"trial":{"trial":1,"duration_s":40},"tolerance":0.05}}`)
	if c.Rep.MinReps != 4 || c.Rep.MaxReps != 64 {
		t.Fatalf("replication defaults = min %d / max %d, want 4 / 64", c.Rep.MinReps, c.Rep.MaxReps)
	}
	// Defaults spelled out must hash like defaults elided.
	explicit := mustCanon(t, `{"kind":"replication","replication":{"trial":{"trial":1,"duration_s":40,"seed":1},"tolerance":0.05,"min_reps":4,"max_reps":64}}`)
	if c.Hash() != explicit.Hash() {
		t.Fatalf("explicit replication defaults changed the hash:\n%q\n%q",
			c.AppendBinary(nil), explicit.AppendBinary(nil))
	}
	// Admission control budgets the worst case: the full MaxReps budget.
	cost := c.Cost()
	if cost.Runs != 64 || cost.SimSeconds != 40*64 {
		t.Fatalf("replication cost = %+v, want 64 runs / 2560 sim-seconds", cost)
	}
	if cost.Vehicles != 2*c.Rep.Base.PlatoonSize {
		t.Fatalf("replication cost vehicles = %d, want both platoons (%d)", cost.Vehicles, 2*c.Rep.Base.PlatoonSize)
	}
}

// TestRepEntryHash pins the per-replication cache-entry addressing: an
// entry key depends only on (base config, derived seed), never on the
// study parameters or observation-only knobs, so a tighter-tolerance
// resubmission addresses the very same entries.
func TestRepEntryHash(t *testing.T) {
	loose := mustCanon(t, `{"kind":"replication","replication":{"trial":{"trial":1,"duration_s":40},"tolerance":0.05,"min_reps":3,"max_reps":8}}`)
	tight := mustCanon(t, `{"kind":"replication","replication":{"trial":{"trial":1,"duration_s":40},"tolerance":0.02,"min_reps":6,"max_reps":16}}`)
	checked := mustCanon(t, `{"kind":"replication","replication":{"trial":{"trial":1,"duration_s":40,"check":true},"tolerance":0.05}}`)
	other := mustCanon(t, `{"kind":"replication","replication":{"trial":{"trial":3,"duration_s":40},"tolerance":0.05}}`)

	if loose.Hash() == tight.Hash() {
		t.Fatal("study hashes must differ across tolerances (distinct artifacts)")
	}
	if loose.RepEntryHash(7) != tight.RepEntryHash(7) {
		t.Fatal("entry hash depends on the study tolerance/budget — refinement cannot reuse entries")
	}
	if loose.RepEntryHash(7) != checked.RepEntryHash(7) {
		t.Fatal("entry hash depends on the check knob — checked and unchecked studies must share entries")
	}
	if loose.RepEntryHash(7) == loose.RepEntryHash(8) {
		t.Fatal("entry hash ignores the replication seed")
	}
	if loose.RepEntryHash(7) == other.RepEntryHash(7) {
		t.Fatal("entry hash ignores the base config")
	}
	if loose.RepEntryHash(7) == loose.Hash() {
		t.Fatal("entry hash collides with the study hash")
	}
	// The entry namespace must not collide with a plain trial request for
	// the same config and seed (their artifacts have different shapes).
	trial := mustCanon(t, `{"kind":"trial","trial":{"trial":1,"duration_s":40,"seed":7}}`)
	if loose.RepEntryHash(7) == trial.Hash() {
		t.Fatal("entry hash collides with the equivalent trial-request hash")
	}
}

func TestParseHash(t *testing.T) {
	h := mustCanon(t, `{"kind":"trial","trial":{"trial":1}}`).Hash()
	back, err := ParseHash(h.String())
	if err != nil || back != h {
		t.Fatalf("ParseHash(%q) = %v, %v", h.String(), back, err)
	}
	if _, err := ParseHash("abc"); err == nil {
		t.Fatalf("short hash accepted")
	}
	if _, err := ParseHash(strings.Repeat("zz", 32)); err == nil {
		t.Fatalf("non-hex hash accepted")
	}
}

func TestTrialPresetMatchesScenario(t *testing.T) {
	c := mustCanon(t, `{"kind":"trial","trial":{"trial":2}}`)
	want := scenario.Trial2()
	if c.Trial.Name != want.Name || c.Trial.PacketSize != want.PacketSize || c.Trial.MAC != want.MAC {
		t.Fatalf("trial 2 canonical = %+v, want preset %+v", c.Trial, want)
	}
}
