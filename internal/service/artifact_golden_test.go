// Golden output gate for the degradation artifact: the artifact bytes
// and the streamed progress transcript are pinned as SHA-256 digests,
// so the sweep engine beneath them may be restructured without moving
// a byte (a move would also orphan every cached degradation entry).
//
// Regenerate (only when an intentional behaviour change lands) with:
//
//	go test -run TestDegradationArtifactGolden -update-golden ./internal/service
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vanetsim/internal/service/canon"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/artifact_golden.json")

const artifactGoldenPath = "testdata/artifact_golden.json"

func TestDegradationArtifactGolden(t *testing.T) {
	bodies := map[string]string{
		// TestDegradationArtifact's request.
		"degradation-tdma": `{"kind":"degradation","degradation":{"mac":"tdma","loss_probs":[0,0.3],"duration_s":30,"check":true}}`,
		"degradation-burst-outage": `{"kind":"degradation","degradation":{"mac":"tdma","loss_probs":[0,0.1,0.3],"burst_len":4,"shadow_db":2,` +
			`"outage":{"node":1,"start_s":22,"duration_s":5},"duration_s":30,"check":true}}`,
	}
	got := map[string]string{}
	for name, body := range bodies {
		req, err := canon.Decode(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		c, err := canon.Canonicalize(req)
		if err != nil {
			t.Fatal(err)
		}
		var progress strings.Builder
		data, err := BuildArtifact(c, func(l string) { progress.WriteString(l + "\n") })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name+"/artifact"] = digest(data)
		got[name+"/progress"] = digest([]byte(progress.String()))
	}

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(artifactGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(artifactGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(artifactGoldenPath)
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
