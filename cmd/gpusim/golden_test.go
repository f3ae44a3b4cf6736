package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// update rewrites the golden reports instead of comparing against them:
//
//	go test ./cmd/gpusim -run TestGoldenReports -update
var update = flag.Bool("update", false, "rewrite the golden reports under testdata/")

// goldenReports pins one report per output mode. The two fleet runs split
// because the resilience layer rejects instead of swapping, so its report
// never prints the memory line: together they cover every printed field of
// the cluster and per-GPU reports. A third fleet scales up on the watched
// class's rolling-window p99 and miss rate alone, the autoscaler signals the
// backlog-driven fleets never fire. Their fleet policy (autoscale, faults,
// resilience) comes from the topology files under testdata/, the only way
// gpusim takes it.
var goldenReports = []struct {
	name string
	args string
}{
	{"closed", "-apps spmv,lbm,sgemm -policy dss -mech context-switch -hp 0 -scale 16"},
	{"open", "-apps spmv,lbm -policy ppq -mech adaptive -hp 0 -scale 48 -arrivals poisson -rate 20000 -horizon 2ms"},
	{"fleet-resilience", "-apps spmv,lbm,sgemm -policy ppq -mech context-switch -hp 0 -deadline 40us -scale 48 " +
		"-arrivals poisson -rate 200000 -horizon 2ms -hbm 1MiB -swap -cluster testdata/fleet-resilience.json"},
	{"fleet-swap", "-policy ppq -mech context-switch -hp 0 -deadline 40us -scale 48 " +
		"-arrivals poisson -rate 80000 -horizon 2ms -dispatch least-loaded-fits -hbm 128KiB -swap -cluster testdata/kills.json"},
	{"fleet-autoscale-slo", "-apps spmv,lbm,sgemm -policy ppq -mech adaptive -hp 0 -deadline 40us -scale 48 " +
		"-arrivals poisson -rate 120000 -horizon 2ms -cluster testdata/autoscale-slo.json"},
}

// TestGoldenReports builds gpusim and requires each pinned report's stdout
// to be byte-identical to testdata/<name>.golden, so a change to the library
// facade or the simulator that moves any printed number fails here.
func TestGoldenReports(t *testing.T) {
	bin := buildGpusim(t)
	for _, tc := range goldenReports {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, err := runGpusim(t, bin, strings.Fields(tc.args)...)
			if err != nil {
				t.Fatalf("gpusim %s: %v\n%s", tc.args, err, stderr)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, stdout, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (seed it with -update)", err)
			}
			if !bytes.Equal(stdout, want) {
				t.Errorf("gpusim %s drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", tc.args, path, stdout, want)
			}
		})
	}
}

// buildGpusim builds the command into a temporary directory, skipping the
// test under -short.
func buildGpusim(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "gpusim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building gpusim: %v\n%s", err, out)
	}
	return bin
}

// TestRejectsBadFlags requires gpusim to exit non-zero, naming the problem
// on stderr, for out-of-range values that once ran a silently different
// model and for the fleet-policy flags that a -cluster file replaced.
func TestRejectsBadFlags(t *testing.T) {
	bin := buildGpusim(t)
	type badRun struct{ args, stderr string }
	cases := []badRun{
		{"-seed 0", "-seed must be at least 1, got 0"},
		{"-scale 0", "-scale must be at least 1"},
		{"-scale -3", "-scale must be at least 1"},
		{"-jitter 5", "jitter fraction 5 outside [0, 1]"},
		{"-hp 7 -scale 48", "-hp must be -1 (none) or an application index in [0, 2), got 7"},
		{"-hp -2", "-hp must be -1 (none) or an application index in [0, 2), got -2"},
		{"-runs 0", "-runs must be at least 1"},
		{"-runs -2", "-runs must be at least 1"},
		{"-jitter -0.5", "-jitter must be in [0, 1], got -0.5"},
		{"-reps 0", "-reps must be at least 1"},
		{"-reps -2", "-reps must be at least 1"},
		{"-parallel 0", "-parallel must be at least 1"},
		{"-parallel -3", "-parallel must be at least 1"},
		{"-rate NaN", "-rate must be positive and finite"},
		{"-rate +Inf", "-rate must be positive and finite"},
		// Finite but with gaps under 1ns: the stream would never reach the
		// horizon, so the generator must refuse it.
		{"-apps spmv,lbm -scale 48 -arrivals poisson -horizon 1ms -rate 1e300", "peak rate 1e+300/s exceeds 1e9/s"},
		{"-apps spmv,lbm -scale 48 -arrivals poisson -horizon 1ms -phases NaN:1ms", "rate factor must be positive and finite, got NaN"},
		{"-hbm 0", "-hbm must be a positive size"},
		{"-hbm -4MiB", "-hbm must be a positive size"},
		{"-hbm NaN", "-hbm must be a positive size"},
		{"-hbm Inf", "-hbm must be a positive size"},
		{"-hbm 1e19", "-hbm must be a positive size"},
		// Fleet-only flags on a run that is not a fleet would be ignored.
		{"-arrivals poisson -apps spmv,lbm -scale 48 -rate 20000 -horizon 1ms -warm-start 1ms", "-warm-start needs a fleet"},
		{"-apps spmv,lbm -scale 48 -par-window 8", "-par-window needs a fleet"},
	}
	for _, f := range []string{"autoscale 2:4", "as-high 4", "as-low 1", "as-interval 250us",
		"kill-rate 1500", "downtime 500us", "straggler 0.2", "slow-factor 2", "timeout 300us",
		"retries 3", "retry-budget 10:0.1", "hedge 0.9", "breaker 0.5", "shed 8:32"} {
		name, _, _ := strings.Cut(f, " ")
		cases = append(cases, badRun{"-" + f, "flag provided but not defined: -" + name})
	}
	for _, tc := range cases {
		t.Run(tc.args, func(t *testing.T) { requireFailure(t, bin, strings.Fields(tc.args), tc.stderr) })
	}
}

// TestJitterZeroDisablesJitter requires -jitter 0 to run without jitter:
// Options reads a zero Jitter as its 0.30 default, so a flag passed through
// unchanged would print the -jitter 0.3 report.
func TestJitterZeroDisablesJitter(t *testing.T) {
	bin := buildGpusim(t)
	report := func(jitter string) string {
		out, _, err := runGpusim(t, bin, "-scale", "48", "-jitter", jitter)
		if err != nil {
			t.Fatalf("gpusim -jitter %s: %v", jitter, err)
		}
		return string(out)
	}
	none, dflt := report("0"), report("0.3")
	if none == dflt {
		t.Fatalf("-jitter 0 printed the -jitter 0.3 report:\n%s", none)
	}
}

// TestRejectsBadClusterFile requires gpusim to exit non-zero on a -cluster
// topology that leaves out the fleet size (the file replaces -gpus, so it
// must carry nodes or node_types) and on one that is not valid JSON.
func TestRejectsBadClusterFile(t *testing.T) {
	bin := buildGpusim(t)
	for _, tc := range []struct{ name, topology, stderr string }{
		{"no fleet size", `{"dispatch": "jsq", "faults": {"kill_rate": 1500}}`, "node count 0 out of range"},
		{"malformed", `{"nodes": 4,`, "decoding topology"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "topology.json")
			if err := os.WriteFile(path, []byte(tc.topology), 0o644); err != nil {
				t.Fatal(err)
			}
			requireFailure(t, bin, []string{"-arrivals", "poisson", "-cluster", path}, tc.stderr)
		})
	}
}

// requireFailure runs gpusim with args and requires a non-zero exit whose
// stderr names the problem.
func requireFailure(t *testing.T, bin string, args []string, stderr string) {
	t.Helper()
	_, got, err := runGpusim(t, bin, args...)
	if err == nil {
		t.Fatalf("gpusim %s exited 0", strings.Join(args, " "))
	}
	if !strings.Contains(string(got), stderr) {
		t.Errorf("gpusim %s: stderr %q lacks %q", strings.Join(args, " "), got, stderr)
	}
}

// runDeadline bounds every gpusim run, so that a case that regresses into an
// endless loop fails the test instead of growing until the host kills it.
const runDeadline = 30 * time.Second

// runGpusim runs bin with args under runDeadline and returns its stdout,
// stderr and exit error; it fails the test if the deadline passes.
func runGpusim(t *testing.T, bin string, args ...string) (stdout, stderr []byte, err error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	var out, errOut bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("gpusim %s: no exit within %v", strings.Join(args, " "), runDeadline)
	}
	return out.Bytes(), errOut.Bytes(), err
}
