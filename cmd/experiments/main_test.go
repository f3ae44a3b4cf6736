package main

import (
	"bytes"
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRejectsBadFlags requires experiments to exit non-zero, naming the
// problem on stderr, for out-of-range counts that the experiment options
// would otherwise replace with their defaults and so print a different
// report.
func TestRejectsBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building experiments: %v\n%s", err, out)
	}
	for _, tc := range []struct{ args, stderr string }{
		{"-n 0", "-n must be at least 1, got 0"},
		{"-n -2", "-n must be at least 1, got -2"},
		{"-runs 0", "-runs must be at least 1, got 0"},
		{"-runs -1", "-runs must be at least 1, got -1"},
		{"-scale 0", "-scale must be at least 1, got 0"},
		{"-scale -3", "-scale must be at least 1, got -3"},
		{"-parallel 0", "-parallel must be at least 1, got 0"},
		{"-parallel -4", "-parallel must be at least 1, got -4"},
		{"-par-window -1", "-par-window must be non-negative, got -1"},
		{"-seed 0", "-seed must be at least 1, got 0"},
		{"-sizes 11", "-sizes 11 exceeds the suite's 10 applications"},
		{"-sizes 2,11", "-sizes 11 exceeds the suite's 10 applications"},
		{"-gpus 2000", "-gpus 2000 out of range [1, 1024]"},
		{"-gpus 1,1025", "-gpus 1025 out of range [1, 1024]"},
		{"-gpus 0", `bad size "0"`},
	} {
		t.Run(tc.args, func(t *testing.T) {
			// table2 needs no simulation, so a flag that slipped through
			// would exit 0 at once instead of running a grid.
			args := append(strings.Fields(tc.args), "-exp", "table2", "-q")
			// A deadline turns a flag that regresses into a long run into a
			// failure instead of a hung test.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			var stderr bytes.Buffer
			cmd := exec.CommandContext(ctx, bin, args...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			if ctx.Err() != nil {
				t.Fatalf("experiments %s: no exit within 30s", strings.Join(args, " "))
			}
			if err == nil {
				t.Fatalf("experiments %s exited 0", strings.Join(args, " "))
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("experiments %s: stderr %q lacks %q", strings.Join(args, " "), stderr.String(), tc.stderr)
			}
			if strings.Count(stderr.String(), "experiments: ") != 1 {
				t.Errorf("experiments %s: stderr %q does not name the command exactly once", strings.Join(args, " "), stderr.String())
			}
		})
	}
}

// TestErrorLineNamesCommandOnce pins the exit message's prefix: the
// command names itself once, also for a grid error the experiments package
// has already prefixed.
func TestErrorLineNamesCommandOnce(t *testing.T) {
	for _, tc := range []struct{ err, want string }{
		{"-n must be at least 1, got 0", "experiments: -n must be at least 1, got 0"},
		{"experiments: cluster 2 GPUs jsq Draining: boom", "experiments: cluster 2 GPUs jsq Draining: boom"},
		{"open out/x.csv: permission denied", "experiments: open out/x.csv: permission denied"},
	} {
		if got := errorLine(errors.New(tc.err)); got != tc.want {
			t.Errorf("errorLine(%q) = %q, want %q", tc.err, got, tc.want)
		}
	}
}
