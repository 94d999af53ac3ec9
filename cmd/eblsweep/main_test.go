package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSafetyMatrixOnly(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-safety", "-duration", "40"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Safety matrix") {
		t.Fatal("safety matrix missing")
	}
	if strings.Contains(out, "Performance sweep") {
		t.Fatal("-safety should suppress the performance sweep")
	}
	// Both verdict letters must appear: the matrix spans the crossover.
	if !strings.Contains(out, "S") || !strings.Contains(out, "X") {
		t.Fatalf("matrix shows no contrast:\n%s", out)
	}
}

func TestPerfSweepOnly(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-perf", "-duration", "40"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "Safety matrix") {
		t.Fatal("-perf should suppress the safety matrix")
	}
	// 2 MACs x 4 sizes = 8 data rows.
	if got := strings.Count(out, "\n") - 2; got != 8 {
		t.Fatalf("perf sweep rows = %d, want 8", got)
	}
}

// TestParallelDeterminism is the tentpole's golden test: the full sweep
// at -j 8 must produce byte-identical stdout, progress, and NDJSON to
// -j 1. CI runs this under -race with -count=2.
func TestParallelDeterminism(t *testing.T) {
	dir := t.TempDir()
	invoke := func(j string) (stdout, progress, ndjson []byte) {
		t.Helper()
		path := filepath.Join(dir, "runs-j"+j+".ndjson")
		var out, prog bytes.Buffer
		if err := runWith([]string{"-duration", "30", "-j", j, "-stats-json", path}, &out, &prog); err != nil {
			t.Fatalf("-j %s: %v", j, err)
		}
		nd, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), prog.Bytes(), nd
	}
	seqOut, seqProg, seqND := invoke("1")
	parOut, parProg, parND := invoke("8")

	if !bytes.Equal(seqOut, parOut) {
		t.Errorf("stdout differs between -j 1 and -j 8:\n--- j=1\n%s\n--- j=8\n%s", seqOut, parOut)
	}
	if !bytes.Equal(seqProg, parProg) {
		t.Errorf("progress stream differs between -j 1 and -j 8:\n--- j=1\n%s\n--- j=8\n%s", seqProg, parProg)
	}
	if !bytes.Equal(seqND, parND) {
		t.Errorf("NDJSON differs between -j 1 and -j 8 (%d vs %d bytes)", len(seqND), len(parND))
	}
	if len(seqND) == 0 || !bytes.Contains(seqND, []byte(`"kind":"run"`)) {
		t.Error("NDJSON stream missing run headers")
	}
}

// TestStatsJSONAppends: the -stats-json help text promises append
// semantics, so a second invocation must accumulate onto the first, not
// clobber it.
func TestStatsJSONAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.ndjson")
	countRuns := func() int {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Count(b, []byte(`"kind":"run"`))
	}
	args := []string{"-safety", "-duration", "30", "-stats-json", path}
	if err := runWith(args, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	first := countRuns()
	if first == 0 {
		t.Fatal("first invocation wrote no run records")
	}
	if err := runWith(args, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	if got := countRuns(); got != 2*first {
		t.Fatalf("after two invocations: %d run records, want %d (append, not truncate)", got, 2*first)
	}
}

// TestSafetyMatrixRefusesMissingIndication: when no packet ever reaches
// the trailing vehicle there is no indication delay; the sweep must
// fail loudly instead of printing an all-safe matrix built on 0.0 s.
func TestSafetyMatrixRefusesMissingIndication(t *testing.T) {
	var out bytes.Buffer
	err := runWith([]string{"-safety", "-duration", "0"}, &out, io.Discard)
	if err == nil {
		t.Fatalf("zero-duration safety matrix did not fail; output:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "no packet") {
		t.Fatalf("error does not explain the missing sample: %v", err)
	}
	if strings.Contains(out.String(), "S = safe") {
		t.Fatal("matrix was printed despite the missing indication delay")
	}
}

func TestDegradeSweep(t *testing.T) {
	var sb strings.Builder
	args := []string{"-degrade", "-duration", "30",
		"-degrade-loss", "0,0.2", "-degrade-burst", "1,4",
		"-degrade-outage", "1:22:5"}
	if err := runWith(args, &sb, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Degradation sweep") || !strings.Contains(out, "node 1 down [22 s, 27 s)") {
		t.Fatalf("degradation header wrong:\n%s", out)
	}
	if strings.Contains(out, "Safety matrix") || strings.Contains(out, "Performance sweep") {
		t.Fatal("-degrade must print only the degradation sweep")
	}
	// 2 loss rates x 2 burst lengths = 4 data rows after header + column line.
	if got := strings.Count(out, "\n") - 2; got != 4 {
		t.Fatalf("got %d data rows, want 4:\n%s", got, out)
	}
}

func TestDegradeSweepIdenticalAcrossJobs(t *testing.T) {
	mk := func(jobs string) string {
		var sb strings.Builder
		args := []string{"-degrade", "-duration", "30", "-j", jobs,
			"-degrade-loss", "0,0.1,0.2", "-degrade-burst", "1"}
		if err := runWith(args, &sb, io.Discard); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if a, b := mk("1"), mk("8"); a != b {
		t.Fatalf("-degrade output differs between -j1 and -j8:\n%s\nvs\n%s", a, b)
	}
}

func TestDegradeAxisErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-degrade", "-degrade-loss", "nope"},
		{"-degrade", "-degrade-burst", ""},
		{"-degrade", "-degrade-outage", "1:2"},
		{"-degrade", "-degrade-mac", "csma"},
		// Out-of-range loss rates once panicked in the fault layer (or,
		// in burst mode, printed a total-loss or clean row labelled with
		// the bad rate); a bad burst length silently fell back to
		// independent losses.
		{"-degrade", "-duration", "30", "-degrade-loss", "5", "-degrade-burst", "1"},
		{"-degrade", "-duration", "30", "-degrade-loss", "5", "-degrade-burst", "4"},
		{"-degrade", "-duration", "30", "-degrade-loss", "NaN", "-degrade-burst", "1"},
		{"-degrade", "-duration", "30", "-degrade-loss", "NaN", "-degrade-burst", "4"},
		{"-degrade", "-duration", "30", "-degrade-loss", "-1", "-degrade-burst", "1"},
		{"-degrade", "-duration", "30", "-degrade-loss", "-1", "-degrade-burst", "4"},
		{"-degrade", "-duration", "30", "-degrade-loss", "0.1", "-degrade-burst", "1,NaN"},
		// A non-finite run length once hung the sweep in RunUntil.
		{"-safety", "-duration", "NaN"},
		{"-safety", "-duration", "inf"},
		{"-perf", "-duration", "inf"},
		{"-perf", "-duration", "-5"},
		{"-degrade", "-duration", "NaN"},
		{"-degrade", "-duration", "+Inf"},
	} {
		var out bytes.Buffer
		err := runWith(args, &out, io.Discard)
		if err == nil {
			t.Errorf("args %v accepted", args)
		}
		// Only the title and column lines may precede the error.
		if rows := strings.Count(out.String(), "\n"); rows > 2 {
			t.Errorf("args %v printed %d data row(s):\n%s", args, rows-2, out.String())
		}
	}
}

// TestFlagConflicts: flags that cannot apply to the selected sweep are a
// one-line error before any run. -safety -perf once ran nothing and
// exited 0; the -degrade-* axes were silently ignored without -degrade.
func TestFlagConflicts(t *testing.T) {
	for _, args := range [][]string{
		{"-safety", "-perf"},
		{"-degrade", "-safety"},
		{"-degrade", "-perf"},
		{"-degrade-loss", "0.1"},
		{"-degrade-burst", "4"},
		{"-degrade-outage", "1:22:5"},
		{"-degrade-mac", "802.11"},
		{"-safety", "-degrade-mac", "tdma"},
		{"-perf", "-degrade-loss", "0,0.1", "-degrade-burst", "1"},
	} {
		var out, prog bytes.Buffer
		err := runWith(args, &out, &prog)
		if err == nil {
			t.Errorf("args %v accepted", args)
			continue
		}
		if strings.Contains(err.Error(), "\n") {
			t.Errorf("args %v: error spans lines: %q", args, err)
		}
		if out.Len() > 0 || prog.Len() > 0 {
			t.Errorf("args %v ran before failing:\n%s%s", args, out.String(), prog.String())
		}
	}
}
