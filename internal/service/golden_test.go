package service

import (
	"bytes"
	"reflect"
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

// TestDegradationDefaultsMatchLibrary: canon keeps its own copy of the
// degradation defaults so the hashing layer does not import the facade.
// An empty request must still resolve to exactly DefaultDegradation's
// base trial, loss grid and 80 s duration on each MAC; the one permitted
// difference is Telemetry, which RunDegradation forces on per run.
func TestDegradationDefaultsMatchLibrary(t *testing.T) {
	for name, mac := range map[string]vanetsim.MACType{"tdma": vanetsim.MACTDMA, "802.11": vanetsim.MAC80211} {
		req, err := canon.Decode(strings.NewReader(`{"kind":"degradation","degradation":{"mac":"` + name + `"}}`))
		if err != nil {
			t.Fatal(err)
		}
		c, err := canon.Canonicalize(req)
		if err != nil {
			t.Fatal(err)
		}
		want := vanetsim.DefaultDegradation(mac)
		got := c.Deg
		if got.Base.Duration != 80 || want.Base.Duration != 80 {
			t.Errorf("%s: duration canon %v, library %v, want 80 s", name, got.Base.Duration, want.Base.Duration)
		}
		if !got.Base.Telemetry {
			t.Errorf("%s: canon base has telemetry off", name)
		}
		got.Base.Telemetry = want.Base.Telemetry
		if !reflect.DeepEqual(got.Base, want.Base) {
			t.Errorf("%s: base trial differs:\ncanon   %+v\nlibrary %+v", name, got.Base, want.Base)
		}
		if !reflect.DeepEqual(got.LossProbs, want.LossProbs) {
			t.Errorf("%s: loss grid canon %v, library %v", name, got.LossProbs, want.LossProbs)
		}
		if got.BurstLen != want.BurstLen || got.ShadowDB != want.ShadowSigmaDB || len(got.Outages) != 0 || want.Outage.Duration != 0 {
			t.Errorf("%s: impairments differ: canon %+v, library %+v", name, got, want)
		}
	}
}
