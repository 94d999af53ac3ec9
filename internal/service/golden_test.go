package service

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"vanetsim"
	"vanetsim/internal/service/canon"
)

// canonHash canonicalises a request body and returns its cache key.
func canonHash(t *testing.T, body string) string {
	t.Helper()
	req, err := canon.Decode(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	c, err := canon.Canonicalize(req)
	if err != nil {
		t.Fatal(err)
	}
	return c.Hash().String()
}

// TestGoldenCacheHitMatchesFreshRun is the service's correctness bar:
// for each headline scenario — the paper's three trials and a dense
// highway, all with the invariant checker armed — a cache hit must be
// byte-identical to a fresh run. The sequence run → evict → re-run
// proves it without trusting the cache: the second run rebuilds the
// artifact from scratch on a server that has already served (and
// evicted) it, and the bytes must not move. Run under -race in CI.
func TestGoldenCacheHitMatchesFreshRun(t *testing.T) {
	bodies := map[string]string{
		"trial1": `{"kind":"trial","trial":{"trial":1,"duration_s":40,"check":true,"telemetry":true}}`,
		"trial2": `{"kind":"trial","trial":{"trial":2,"duration_s":40,"check":true,"telemetry":true}}`,
		"trial3": `{"kind":"trial","trial":{"trial":3,"duration_s":40,"check":true,"telemetry":true}}`,
		"dense":  `{"kind":"dense","dense":{"vehicles":48,"duration_s":6,"check":true,"telemetry":true}}`,
		// The replication re-run additionally rebuilds the study from the
		// per-replication entries that survived the artifact's eviction —
		// proving a cached-entry rebuild is byte-identical too.
		"replication": `{"kind":"replication","replication":{"trial":{"trial":3,"duration_s":40,"check":true},"tolerance":0.2,"min_reps":3,"max_reps":6}}`,
	}
	for name, body := range bodies {
		body := body
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s, ts := newTestServer(t, Config{})

			// Fresh run through the full service path.
			first := postRun(t, ts, body)
			if first[0].Cached {
				t.Fatalf("first submission claimed a hit on an empty cache")
			}
			hash := first[0].Hash
			if last := first[len(first)-1]; last.Event != "done" || last.Error != "" {
				t.Fatalf("first run ended badly: %+v", last)
			}
			fresh := getResult(t, ts, hash)

			// Hit: same bytes straight from the cache.
			second := postRun(t, ts, body)
			if !second[0].Cached {
				t.Fatalf("second submission missed the cache")
			}
			hit := getResult(t, ts, hash)
			if !bytes.Equal(fresh, hit) {
				t.Fatalf("cache hit served different bytes than the fresh run (%d vs %d bytes)", len(hit), len(fresh))
			}

			// Evict and re-run: the rebuilt artifact must be identical.
			if !s.Cache().Evict(hash) {
				t.Fatalf("evict reported %s absent", hash)
			}
			third := postRun(t, ts, body)
			if third[0].Cached {
				t.Fatalf("post-eviction submission claimed a hit")
			}
			if third[0].Hash != hash {
				t.Fatalf("hash moved across runs: %s vs %s", third[0].Hash, hash)
			}
			rebuilt := getResult(t, ts, hash)
			if !bytes.Equal(fresh, rebuilt) {
				t.Fatalf("re-run produced different bytes than the original run (%d vs %d bytes)", len(rebuilt), len(fresh))
			}
		})
	}
}

// TestArtifactExcludesHostData greps a checked, telemetry-bearing
// artifact for the host-dependent fields that must never enter a
// content-addressed result: wall-clock cost.
func TestArtifactExcludesHostData(t *testing.T) {
	req, err := canon.Decode(strings.NewReader(
		`{"kind":"dense","dense":{"vehicles":48,"duration_s":6,"check":true,"telemetry":true}}`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := canon.Canonicalize(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := BuildArtifact(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "wall") {
		t.Errorf("artifact contains host-dependent wall-clock data")
	}
	if !strings.Contains(string(data), "invariant check: clean") {
		t.Errorf("checked artifact missing the checker verdict")
	}
}

// TestDegradationArtifact runs the smallest sweep end to end: the
// artifact must carry the table, the CSV block, and one progress line
// per grid point in grid order.
func TestDegradationArtifact(t *testing.T) {
	req, err := canon.Decode(strings.NewReader(
		`{"kind":"degradation","degradation":{"mac":"tdma","loss_probs":[0,0.3],"duration_s":30,"check":true}}`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := canon.Canonicalize(req)
	if err != nil {
		t.Fatal(err)
	}
	var progress []string
	data, err := BuildArtifact(c, func(l string) { progress = append(progress, l) })
	if err != nil {
		t.Fatal(err)
	}
	if len(progress) != 2 ||
		!strings.HasPrefix(progress[0], "degradation point 1/2: loss=0.000") ||
		!strings.HasPrefix(progress[1], "degradation point 2/2: loss=0.300") {
		t.Fatalf("progress = %q", progress)
	}
	for _, want := range []string{"loss_prob,avg_delay_s", "margin_m", "invariant check: clean"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("degradation artifact missing %q", want)
		}
	}
}

// TestDegradationDefaultsMatchLibrary: canon takes the base trial and
// loss grid from DefaultDegradation itself; what it adds on top is
// telemetry forced on (the sweep reads fault counters), and the default
// point stays 80 s on each MAC.
func TestDegradationDefaultsMatchLibrary(t *testing.T) {
	for _, mac := range []string{"tdma", "802.11"} {
		req, err := canon.Decode(strings.NewReader(`{"kind":"degradation","degradation":{"mac":"` + mac + `"}}`))
		if err != nil {
			t.Fatal(err)
		}
		c, err := canon.Canonicalize(req)
		if err != nil {
			t.Fatal(err)
		}
		if c.Deg.Base.Duration != 80 {
			t.Errorf("%s: duration %v, want 80 s", mac, c.Deg.Base.Duration)
		}
		if !c.Deg.Base.Telemetry {
			t.Errorf("%s: canon base has telemetry off", mac)
		}
	}
}

// TestReplicationRuleMatchesLibrary: canon resolves a study's stopping
// parameters through the library's rule, so wherever its own (0, 1)
// tolerance policy does not apply it rejects exactly the specs
// RunReplicationsTolerance rejects. The library side recalls constant
// replications through Lookup, so nothing is simulated.
func TestReplicationRuleMatchesLibrary(t *testing.T) {
	recall := func(seed uint64) (vanetsim.Replication, bool) {
		return vanetsim.Replication{Seed: seed, AvgDelayS: 1, SteadyS: 1, FirstS: 1, AvgTputMbps: 1}, true
	}
	reps := []struct{ min, max int }{
		{0, 0}, {1, 0}, {2, 0}, {-1, 0}, // min_reps default, 1, 2, negative
		{0, 1}, {2, 1}, {0, 3}, {8, 4}, {2, 2}, // max_reps 1, below min_reps, equal
	}
	tols := []struct {
		v float64
		// policy marks a tolerance the library accepts and canon's
		// (0, 1) policy rejects.
		policy bool
	}{{0.05, false}, {0, false}, {-0.05, false}, {math.NaN(), false}, {math.Inf(1), false}, {5, true}}
	for _, tol := range tols {
		for _, r := range reps {
			name := fmt.Sprintf("tolerance %v, min_reps %d, max_reps %d", tol.v, r.min, r.max)
			_, canonErr := canon.Canonicalize(canon.Request{Kind: "replication", Replication: &canon.ReplicationRequest{
				Trial: &canon.TrialRequest{Trial: 1}, Tolerance: tol.v, MinReps: r.min, MaxReps: r.max,
			}})
			_, libErr := vanetsim.RunReplicationsTolerance(vanetsim.Trial1(), tol.v, vanetsim.ToleranceOptions{
				MinReps: r.min, MaxReps: r.max, Lookup: recall,
			})
			if tol.policy {
				if canonErr == nil {
					t.Errorf("%s: canon accepted a tolerance outside (0, 1)", name)
				}
				continue
			}
			if (canonErr == nil) != (libErr == nil) {
				t.Errorf("%s: canon error %v, library error %v", name, canonErr, libErr)
			}
		}
	}
}
