// Golden output gate for the degradation sweep: stdout, the stderr
// progress stream and the -stats-json NDJSON are pinned as SHA-256
// digests, so the sweep engine beneath
// them may be restructured without moving a byte.
//
// Regenerate (only when an intentional behaviour change lands) with:
//
//	go test -run TestDegradeSweepGolden -update-golden ./cmd/eblsweep
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

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/degrade_golden.json")

const degradeGoldenPath = "testdata/degrade_golden.json"

func TestDegradeSweepGolden(t *testing.T) {
	cases := map[string][]string{
		"outage": {"-degrade", "-duration", "30", "-degrade-loss", "0,0.2",
			"-degrade-burst", "1,4", "-degrade-outage", "1:22:5"},
		"80211-check": {"-degrade", "-duration", "30", "-degrade-loss", "0.1",
			"-degrade-burst", "4", "-degrade-mac", "802.11", "-check"},
	}
	got := map[string]string{}
	for name, args := range cases {
		path := filepath.Join(t.TempDir(), "runs.ndjson")
		var out, prog bytes.Buffer
		if err := runWith(append(args, "-stats-json", path), &out, &prog); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nd, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got[name+"/stdout"] = digest(out.Bytes())
		got[name+"/stderr"] = digest(prog.Bytes())
		got[name+"/ndjson"] = digest(nd)
	}

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(degradeGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(degradeGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(degradeGoldenPath)
	if err != nil {
		t.Fatalf("read golden file (run with -update-golden to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
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
