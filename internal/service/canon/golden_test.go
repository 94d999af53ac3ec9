package canon

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/encoding.golden")

// goldenBodies span all four request kinds and every encoding shape: a
// custom MAC and packet, every fault field, unsorted outages, non-default
// dense fields, a degradation outage and loss grid, and replications
// (whose per-replication entry hash is pinned as well).
var goldenBodies = []string{
	`{"kind":"trial","trial":{"trial":1}}`,
	`{"kind":"trial","trial":{"trial":2,"seed":7,"duration_s":40,"telemetry":true}}`,
	`{"kind":"trial","trial":{"trial":0,"mac":"dcf","packet":500,"check":true}}`,
	`{"kind":"trial","trial":{"trial":3,"faults":{"loss":0.05,"ber":1e-5,"burst_loss":0.1,"burst_len":6,"shadow_db":4,"outages":[{"node":4,"start_s":10,"duration_s":3},{"node":1,"start_s":22.5,"duration_s":5}]}}}`,
	`{"kind":"dense","dense":{"vehicles":240}}`,
	`{"kind":"dense","dense":{"vehicles":96,"mac":"802.11","lanes":3,"platoon_len":8,"beacon_fraction":0,"beacon_jitter":0.25,"safety_depth":2,"duration_s":6,"seed":11,"telemetry":true,"check":true}}`,
	`{"kind":"degradation","degradation":{}}`,
	`{"kind":"degradation","degradation":{"mac":"802.11","loss_probs":[0,0.15,0.4],"burst_len":4,"shadow_db":2,"outage":{"node":1,"start_s":22,"duration_s":5},"duration_s":30,"seed":3,"check":true}}`,
	`{"kind":"replication","replication":{"trial":{"trial":1,"duration_s":40},"tolerance":0.05}}`,
	`{"kind":"replication","replication":{"trial":{"trial":3,"seed":9,"check":true},"tolerance":0.02,"min_reps":3,"max_reps":8}}`,
	`{"kind":"replication","replication":{"trial":{"trial":0,"mac":"802.11","packet":500,"faults":{"loss":0.1}},"tolerance":0.1,"max_reps":16}}`,
	`{"kind":"trial","trial":{"trial":1,"faults":{"burst_loss":0.2}}}`,
}

// TestCanonicalEncodingGolden pins the exact canonical bytes, Hash and
// replication entry hash of goldenBodies. The other tests only compare
// hashes with each other, so they would not notice every key moving at
// once; this one fails on any encoding change, which must come with a
// Version bump (go test -run TestCanonicalEncodingGolden -update-golden
// rewrites the file once the bump is in).
func TestCanonicalEncodingGolden(t *testing.T) {
	var b strings.Builder
	for _, body := range goldenBodies {
		c := mustCanon(t, body)
		fmt.Fprintf(&b, "# %s\n", body)
		b.Write(c.AppendBinary(nil))
		fmt.Fprintf(&b, "hash %s\n", c.Hash())
		if c.Kind == KindReplication {
			fmt.Fprintf(&b, "rep_entry(12345) %s\n", c.RepEntryHash(12345))
		}
		b.WriteString("\n")
	}
	path := filepath.Join("testdata", "encoding.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("canonical encoding drifted from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("canonical encoding drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
