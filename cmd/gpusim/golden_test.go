package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the golden reports instead of comparing against them:
//
//	go test ./cmd/gpusim -run TestGoldenReports -update
var update = flag.Bool("update", false, "rewrite the golden reports under testdata/")

// goldenReports pins one report per output mode. The two fleet runs split
// because the resilience layer rejects instead of swapping, so its report
// never prints the memory line: together they cover every printed field of
// the cluster and per-GPU reports.
var goldenReports = []struct {
	name string
	args string
}{
	{"closed", "-apps spmv,lbm,sgemm -policy dss -mech context-switch -hp 0 -scale 16"},
	{"open", "-apps spmv,lbm -policy ppq -mech adaptive -hp 0 -scale 48 -arrivals poisson -rate 20000 -horizon 2ms"},
	{"fleet-resilience", "-apps spmv,lbm,sgemm -policy ppq -mech context-switch -hp 0 -deadline 40us -scale 48 " +
		"-arrivals poisson -rate 200000 -horizon 2ms -gpus 4 -dispatch least-loaded-fits -autoscale 2:4 " +
		"-hbm 1MiB -swap -kill-rate 1500 -timeout 300us -retries 3 -hedge 0.9:16 -breaker 0.5:500us -shed 8:32"},
	{"fleet-swap", "-policy ppq -mech context-switch -hp 0 -deadline 40us -scale 48 " +
		"-arrivals poisson -rate 80000 -horizon 2ms -gpus 4 -dispatch least-loaded-fits -hbm 128KiB -swap -kill-rate 1500"},
}

// TestGoldenReports builds gpusim and requires each pinned report's stdout
// to be byte-identical to testdata/<name>.golden, so a change to the library
// facade or the simulator that moves any printed number fails here.
func TestGoldenReports(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "gpusim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building gpusim: %v\n%s", err, out)
	}
	for _, tc := range goldenReports {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, strings.Fields(tc.args)...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("gpusim %s: %v\n%s", tc.args, err, stderr.String())
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (seed it with -update)", err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("gpusim %s drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", tc.args, path, stdout.String(), want)
			}
		})
	}
}
