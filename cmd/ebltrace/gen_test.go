package main

import (
	"os"
	"testing"

	"vanetsim"
	"vanetsim/internal/trace"
)

// genTrace runs a short trial with trace collection and writes it to path.
func genTrace(t *testing.T, path string) {
	t.Helper()
	cfg := vanetsim.Trial1()
	cfg.Duration = vanetsim.Seconds(40)
	cfg.CollectTrace = true
	r := vanetsim.RunTrial(cfg)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteAll(f, r.Trace); err != nil {
		t.Fatal(err)
	}
}
