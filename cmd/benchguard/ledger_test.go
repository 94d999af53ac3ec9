package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestLedgerIntegrity checks the committed BENCH.json without running a
// benchmark: every row names a benchmark function that exists in its
// package, carries an e2e or layer:<name> tag, and pins allocs/op. A
// renamed or deleted benchmark fails here instead of only under
// `make bench-guard`.
func TestLedgerIntegrity(t *testing.T) {
	const root = "../.."
	raw, err := os.ReadFile(filepath.Join(root, "BENCH.json"))
	if err != nil {
		t.Fatal(err)
	}
	var ledger baselineFile
	if err := json.Unmarshal(raw, &ledger); err != nil {
		t.Fatalf("BENCH.json: %v", err)
	}
	if len(ledger.Benchmarks) == 0 {
		t.Fatal("BENCH.json: no benchmarks")
	}
	tagRE := regexp.MustCompile(`^(e2e|layer:[a-z0-9]+(/[a-z0-9]+)*)$`)
	sources := map[string]string{} // package dir -> concatenated _test.go sources
	for name, row := range ledger.Benchmarks {
		if !tagRE.MatchString(row.Tag) {
			t.Errorf("%s: tag %q is neither e2e nor layer:<name>", name, row.Tag)
		}
		if row.After.AllocsPerOp == nil {
			t.Errorf("%s: after.allocs_per_op is not set", name)
		}
		if row.Package == "" {
			t.Errorf("%s: no package", name)
			continue
		}
		src, ok := sources[row.Package]
		if !ok {
			files, err := filepath.Glob(filepath.Join(root, row.Package, "*_test.go"))
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			for _, f := range files {
				b, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				sb.Write(b)
			}
			src = sb.String()
			sources[row.Package] = src
		}
		fn, _, _ := strings.Cut(name, "/")
		if !strings.Contains(src, "func "+fn+"(b *testing.B)") {
			t.Errorf("%s: no func %s(b *testing.B) in %s/*_test.go", name, fn, row.Package)
		}
	}
}
