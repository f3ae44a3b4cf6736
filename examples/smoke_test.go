// Package examples smoke-tests every runnable example: each program must
// build, run to completion (with a tiny configuration) and print exactly its
// pinned output in testdata/<name>.golden, so the examples cannot silently
// rot or drift as the library evolves. The test is part of the ordinary
// `go test ./...` tree and therefore runs in CI. Regenerate the goldens
// after an intended output change with
//
//	go test ./examples -run TestExamplesSmoke -update
package examples

import (
	"bytes"
	"context"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/<example>.golden from the current output")

// smokeCases lists every example with the arguments of its tiny
// configuration. Keep this table in sync with the directories under
// examples/ — TestExamplesCovered fails if one is missing.
var smokeCases = []struct {
	name string
	args []string
}{
	{"quickstart", []string{"-scale", "64"}},
	{"mps", []string{"-scale", "16"}},
	{"spatial", []string{"-scale", "16"}},
	{"persistent", []string{"-scale", "16"}},
	{"realtime", nil}, // builder-made microbenchmark, tiny by construction
	{"opensystem", []string{"-scale", "96"}},
	{"cluster", []string{"-scale", "96"}},
	{"resilience", []string{"-scale", "96"}},
}

// TestExamplesCovered pins that every example directory appears in the
// smoke table, so a new example cannot be added without a smoke entry.
func TestExamplesCovered(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	covered := make(map[string]bool, len(smokeCases))
	for _, c := range smokeCases {
		covered[c.name] = true
	}
	for _, e := range entries {
		if !e.IsDir() || e.Name() == "testdata" {
			continue
		}
		if !covered[e.Name()] {
			t.Errorf("examples/%s has no smoke-test entry (add it to smokeCases)", e.Name())
		}
	}
}

// TestExamplesSmoke builds every example once and runs each with its tiny
// configuration, requiring a zero exit status and output byte-identical to
// the example's golden file (every example is deterministic).
func TestExamplesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("example smoke runs in -short mode")
	}
	bindir := t.TempDir()
	build := exec.Command("go", "build", "-o", bindir, "./...")
	build.Dir = "."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building examples: %v\n%s", err, out)
	}
	for _, tc := range smokeCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, filepath.Join(bindir, tc.name), tc.args...)
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = &out
			if err := cmd.Run(); err != nil {
				t.Fatalf("examples/%s %v: %v\n%s", tc.name, tc.args, err, out.String())
			}
			if out.Len() == 0 {
				t.Errorf("examples/%s produced no output", tc.name)
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("examples/%s output differs from %s:\n got:\n%s\nwant:\n%s", tc.name, golden, out.String(), want)
			}
		})
	}
}
