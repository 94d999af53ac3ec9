// Golden output gate for the evaluation report: the full report (at one
// and four workers, and with the invariant checker armed), the
// adaptive-precision report, the latency decomposition and the
// degradation report with its CSV are pinned as SHA-256 digests, so the
// report body and the replication engine beneath it may be restructured
// without moving a byte.
//
// Regenerate (only when an intentional behaviour change lands) with:
//
//	go test -run TestReportGolden -update-golden ./cmd/eblreport
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/report_golden.json")

const reportGoldenPath = "testdata/report_golden.json"

func TestReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the pinned reports run every trial and study")
	}
	cases := map[string][]string{
		"full-j1":    {"-j", "1"},
		"full-j4":    {"-j", "4"},
		"full-check": {"-check"},
		"tolerance":  {"-tolerance", "0.05", "-max-reps", "8"},
		"latency":    {"-latency-breakdown"},
		"degrade":    {"-degrade"},
	}
	got := map[string]string{}
	for name, args := range cases {
		var csvPath string
		if name == "degrade" {
			csvPath = filepath.Join(t.TempDir(), "degrade.csv")
			args = append(args, "-degrade-csv", csvPath)
		}
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name+"/stdout"] = digest(out.Bytes())
		if csvPath != "" {
			raw, err := os.ReadFile(csvPath)
			if err != nil {
				t.Fatal(err)
			}
			got[name+"/csv"] = digest(raw)
		}
	}

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(reportGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(reportGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(reportGoldenPath)
	if err != nil {
		t.Fatalf("read golden file (run with -update-golden to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d digests, the test computes %d", len(want), len(got))
	}
	for name, d := range got {
		if d != want[name] {
			t.Errorf("%s: output digest changed:\n got %s\nwant %s", name, d, want[name])
		}
	}
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
