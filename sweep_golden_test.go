// Golden output gate for the degradation sweep and the fixed-seed
// replication study: the sweep engine and the CI aggregation may be
// restructured, but the rendered tables, CSV and study reports may not
// change a single byte. The digests live in their own file so the
// hot-path golden file stays untouched.
//
// Regenerate (only when an intentional behaviour change lands) with:
//
//	go test -run 'TestDegradationGolden|TestReplicationGolden' -update-golden .
package vanetsim_test

import (
	"encoding/json"
	"os"
	"testing"

	"vanetsim"
)

const sweepGoldenPath = "testdata/sweep_golden.json"

// checkDigests compares each named output's SHA-256 against the pinned
// digests in the golden file at path, or — under -update-golden — merges
// them into the file, leaving keys owned by other tests untouched.
func checkDigests(t *testing.T, path string, got map[string]string) {
	t.Helper()
	want := map[string]string{}
	raw, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(raw, &want)
	}
	if *updateGolden {
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		for name, d := range got {
			want[name] = d
		}
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d digests)", path, len(want))
		return
	}
	if err != nil {
		t.Fatalf("read golden file (run with -update-golden to create): %v", err)
	}
	for name, d := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: missing from golden file (run with -update-golden)", name)
		} else if d != w {
			t.Errorf("%s: output digest changed:\n got %s\nwant %s", name, d, w)
		}
	}
}

// TestDegradationGolden pins the degradation table and CSV of a short
// sweep on each MAC, plus one burst-mode sweep with shadowing and an
// outage, so every branch of the loss → fault-plan mapping is covered.
func TestDegradationGolden(t *testing.T) {
	short := func(mac vanetsim.MACType) vanetsim.DegradationConfig {
		cfg := vanetsim.DefaultDegradation(mac)
		cfg.Base.Duration = vanetsim.Seconds(30)
		cfg.Base.Check = true
		cfg.LossProbs = []float64{0, 0.1, 0.3}
		return cfg
	}
	burst := short(vanetsim.MACTDMA)
	burst.BurstLen = 4
	burst.ShadowSigmaDB = 2
	burst.Outage = vanetsim.FaultOutage{Node: 1, Start: 22, Duration: 5}

	got := map[string]string{}
	for name, cfg := range map[string]vanetsim.DegradationConfig{
		"degradation-tdma":       short(vanetsim.MACTDMA),
		"degradation-80211":      short(vanetsim.MAC80211),
		"degradation-tdma-burst": burst,
	} {
		pts := runDegradation(t, cfg)
		got[name+"/table"] = sha([]byte(vanetsim.FormatDegradationTable(pts)))
		got[name+"/csv"] = sha([]byte(vanetsim.DegradationCSV(pts)))
	}
	checkDigests(t, sweepGoldenPath, got)
}

// TestReplicationGolden pins the fixed-seed study report for trial 3
// and for a zero-duration trial 1, whose trailing vehicle never
// receives a packet (every initial-packet sample missing).
func TestReplicationGolden(t *testing.T) {
	trial3 := vanetsim.Trial3()
	trial3.Duration = vanetsim.Seconds(40)
	empty := vanetsim.Trial1()
	empty.Duration = 0

	got := map[string]string{}
	for name, cfg := range map[string]vanetsim.TrialConfig{
		"replication-trial3-40s":  trial3,
		"replication-trial1-zero": empty,
	} {
		st, err := vanetsim.RunReplicationsPool(cfg, []uint64{1, 2, 3}, vanetsim.Pool{})
		if err != nil {
			t.Fatal(err)
		}
		got[name] = sha([]byte(st.String()))
	}
	checkDigests(t, sweepGoldenPath, got)
}
