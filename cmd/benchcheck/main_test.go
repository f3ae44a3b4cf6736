package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
BenchmarkIssueCompleteTB-8   	     100	    105000 ns/op	        212345 TBs/s	       0 B/op	       0 allocs/op
BenchmarkPreemptLatency/draining-8 	      50	   2000000 ns/op	        12.0 preempts/op	    4096 B/op	      30 allocs/op
BenchmarkPreemptLatency/adaptive-8 	      50	   2500000 ns/op	        12.0 preempts/op	    8192 B/op	      60 allocs/op
PASS
ok  	repro	1.234s
`

func parsed(t *testing.T) map[string]Measurement {
	t.Helper()
	got, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestParseBench(t *testing.T) {
	got := parsed(t)
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(got), got)
	}
	tb, ok := got["BenchmarkIssueCompleteTB"]
	if !ok {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}
	if tb.NsPerOp != 105000 || tb.AllocsPerOp != 0 {
		t.Errorf("IssueCompleteTB = %+v", tb)
	}
	dr := got["BenchmarkPreemptLatency/draining"]
	if dr.NsPerOp != 2000000 || dr.AllocsPerOp != 30 {
		t.Errorf("draining = %+v (custom preempts/op metric must not confuse the parser)", dr)
	}
	if _, err := parseBench(strings.NewReader("no benchmarks here")); err == nil {
		t.Error("empty input accepted")
	}
}

func TestCheck(t *testing.T) {
	got := parsed(t)
	base := &Baseline{Benchmarks: map[string]Measurement{
		"BenchmarkIssueCompleteTB":         {NsPerOp: 100000, AllocsPerOp: 0},
		"BenchmarkPreemptLatency/draining": {NsPerOp: 1900000, AllocsPerOp: 30},
		"BenchmarkPreemptLatency/adaptive": {NsPerOp: 2400000, AllocsPerOp: 60},
	}}
	if problems := check(base, got, 0.25); len(problems) != 0 {
		t.Errorf("within-threshold run flagged: %v", problems)
	}

	// >25% ns/op regression fails.
	base.Benchmarks["BenchmarkIssueCompleteTB"] = Measurement{NsPerOp: 80000, AllocsPerOp: 0}
	problems := check(base, got, 0.25)
	if len(problems) != 1 || !strings.Contains(problems[0], "IssueCompleteTB") {
		t.Errorf("31%% ns/op regression not flagged: %v", problems)
	}
	// ...but passes with a looser threshold.
	if problems := check(base, got, 0.5); len(problems) != 0 {
		t.Errorf("50%% threshold flagged a 31%% regression: %v", problems)
	}
	base.Benchmarks["BenchmarkIssueCompleteTB"] = Measurement{NsPerOp: 100000, AllocsPerOp: 0}

	// A zero-alloc baseline fails on the first new allocation.
	got["BenchmarkIssueCompleteTB"] = Measurement{NsPerOp: 100000, AllocsPerOp: 1}
	if problems := check(base, got, 0.25); len(problems) != 1 {
		t.Errorf("new allocation on zero-alloc baseline not flagged: %v", problems)
	}
	got["BenchmarkIssueCompleteTB"] = Measurement{NsPerOp: 100000, AllocsPerOp: 0}

	// A non-zero baseline within the relative bound stays quiet even when a
	// zero-baseline regression elsewhere must fail, so the hard gate is
	// per-benchmark, not global.
	got["BenchmarkPreemptLatency/adaptive"] = Measurement{NsPerOp: 2500000, AllocsPerOp: 61}
	if problems := check(base, got, 0.25); len(problems) != 0 {
		t.Errorf("61 vs 60 allocs/op within 25%% flagged: %v", problems)
	}
	got["BenchmarkPreemptLatency/adaptive"] = Measurement{NsPerOp: 2500000, AllocsPerOp: 60}

	// A baselined benchmark missing from the run fails.
	base.Benchmarks["BenchmarkGone"] = Measurement{NsPerOp: 1}
	problems = check(base, got, 0.25)
	if len(problems) != 1 || !strings.Contains(problems[0], "not measured") {
		t.Errorf("missing benchmark not flagged: %v", problems)
	}

	// Improvements never fail.
	delete(base.Benchmarks, "BenchmarkGone")
	got["BenchmarkPreemptLatency/draining"] = Measurement{NsPerOp: 500, AllocsPerOp: 0}
	if problems := check(base, got, 0.25); len(problems) != 0 {
		t.Errorf("improvement flagged: %v", problems)
	}
}

// TestCheckZeroBaselineHardFailure pins the synthetic 0 → 1 allocs/op
// regression: a zero-alloc baseline is an absolute gate, so the failure must
// hold at any -max-regress value — a percentage of a zero baseline is always
// zero, and before the explicit zero-baseline branch a loose enough
// threshold plus absolute slack could wave the first allocation through.
func TestCheckZeroBaselineHardFailure(t *testing.T) {
	base := &Baseline{Benchmarks: map[string]Measurement{
		"BenchmarkRetryPath": {NsPerOp: 1000, AllocsPerOp: 0},
	}}
	got := map[string]Measurement{
		"BenchmarkRetryPath": {NsPerOp: 1000, AllocsPerOp: 1},
	}
	for _, maxRegress := range []float64{0, 0.25, 1, 10, 1e9} {
		problems := check(base, got, maxRegress)
		if len(problems) != 1 || !strings.Contains(problems[0], "zero-alloc baseline") {
			t.Errorf("max-regress %g: 0 -> 1 allocs/op not flagged as hard failure: %v",
				maxRegress, problems)
		}
	}
	// Fractional measurement noise above zero still fails: any increase from
	// a zero baseline is a real allocation on some iteration.
	got["BenchmarkRetryPath"] = Measurement{NsPerOp: 1000, AllocsPerOp: 0.4}
	if problems := check(base, got, 0.25); len(problems) != 1 {
		t.Errorf("0 -> 0.4 allocs/op not flagged: %v", problems)
	}
	// Staying at zero passes.
	got["BenchmarkRetryPath"] = Measurement{NsPerOp: 1000, AllocsPerOp: 0}
	if problems := check(base, got, 0.25); len(problems) != 0 {
		t.Errorf("clean zero-alloc run flagged: %v", problems)
	}
}

// TestCheckHostScaling pins the reference scaling: ns/op entries are gated
// relative to the reference benchmark's measured/recorded ratio, so a
// uniformly slower host passes, one benchmark slowing down on the same host
// fails, and a run without the reference fails.
func TestCheckHostScaling(t *testing.T) {
	base := &Baseline{Reference: "BenchmarkHostCalibration", Benchmarks: map[string]Measurement{
		"BenchmarkHostCalibration": {NsPerOp: 4000000, AllocsPerOp: 0},
		"BenchmarkIssueCompleteTB": {NsPerOp: 100000, AllocsPerOp: 1},
		"BenchmarkRunOpen":         {NsPerOp: 6000000, AllocsPerOp: 800},
	}}
	run := func(hostFactor, tbFactor float64) map[string]Measurement {
		return map[string]Measurement{
			"BenchmarkHostCalibration": {NsPerOp: 4000000 * hostFactor, AllocsPerOp: 0},
			"BenchmarkIssueCompleteTB": {NsPerOp: 100000 * hostFactor * tbFactor, AllocsPerOp: 1},
			"BenchmarkRunOpen":         {NsPerOp: 6000000 * hostFactor, AllocsPerOp: 800},
		}
	}

	// A host twice as slow on everything passes.
	if problems := check(base, run(2, 1), 0.25); len(problems) != 0 {
		t.Errorf("uniformly 2x slower host flagged: %v", problems)
	}
	// Without the scaling the same run fails every non-reference entry.
	unscaled := *base
	unscaled.Reference = ""
	if problems := check(&unscaled, run(2, 1), 0.25); len(problems) != 3 {
		t.Errorf("unscaled gate on a 2x slower host: %d problems, want 3: %v", len(problems), problems)
	}
	// One benchmark 1.3x slower on the same host fails, on a faster host
	// too.
	for _, host := range []float64{1, 0.5} {
		problems := check(base, run(host, 1.3), 0.25)
		if len(problems) != 1 || !strings.Contains(problems[0], "BenchmarkIssueCompleteTB") {
			t.Errorf("host %gx: 1.3x IssueCompleteTB slowdown not flagged alone: %v", host, problems)
		}
	}
	// A run that lacks the reference fails.
	got := run(1, 1)
	delete(got, "BenchmarkHostCalibration")
	problems := check(base, got, 0.25)
	if len(problems) == 0 || !strings.Contains(problems[0], "reference not measured") {
		t.Errorf("missing reference not flagged: %v", problems)
	}
}

// TestCheckRepeatedRunsMedian pins the -count gate: a benchmark repeated
// five times is judged on the median of its runs, ns/op and allocs/op each
// on its own, so one 2x outlier run passes (even as the last line) while a
// uniform 1.3x slowdown fails.
func TestCheckRepeatedRunsMedian(t *testing.T) {
	base := &Baseline{Reference: "BenchmarkHostCalibration", Benchmarks: map[string]Measurement{
		"BenchmarkHostCalibration": {NsPerOp: 4000000, AllocsPerOp: 0},
		"BenchmarkAutoscaleStep":   {NsPerOp: 3, AllocsPerOp: 10},
	}}
	output := func(step ...string) string {
		var b strings.Builder
		for _, ns := range []string{"4000000", "4100000", "3900000", "4000000", "4050000"} {
			b.WriteString("BenchmarkHostCalibration-2 \t 100 \t " + ns + " ns/op \t 0 B/op \t 0 allocs/op\n")
		}
		for _, line := range step {
			b.WriteString("BenchmarkAutoscaleStep-2 \t 2000000 \t " + line + "\n")
		}
		return b.String()
	}
	gate := func(out string) []string {
		got, err := parseBench(strings.NewReader(out))
		if err != nil {
			t.Fatal(err)
		}
		return check(base, got, 0.25)
	}

	outlier := output("3.0 ns/op 10 allocs/op", "2.9 ns/op 10 allocs/op", "3.1 ns/op 20 allocs/op",
		"3.0 ns/op 10 allocs/op", "6.0 ns/op 10 allocs/op")
	got, err := parseBench(strings.NewReader(outlier))
	if err != nil {
		t.Fatal(err)
	}
	if m := got["BenchmarkAutoscaleStep"]; m.NsPerOp != 3.0 || m.AllocsPerOp != 10 {
		t.Errorf("median of five runs = %+v, want 3 ns/op and 10 allocs/op", m)
	}
	if m := got["BenchmarkHostCalibration"]; m.NsPerOp != 4000000 {
		t.Errorf("reference median = %v ns/op, want 4000000", m.NsPerOp)
	}
	if problems := gate(outlier); len(problems) != 0 {
		t.Errorf("one 2x outlier in five runs flagged: %v", problems)
	}

	slow := output("3.9 ns/op 10 allocs/op", "3.9 ns/op 10 allocs/op", "3.9 ns/op 10 allocs/op",
		"3.9 ns/op 10 allocs/op", "3.9 ns/op 10 allocs/op")
	problems := gate(slow)
	if len(problems) != 1 || !strings.Contains(problems[0], "BenchmarkAutoscaleStep") {
		t.Errorf("uniform 1.3x slowdown over five runs not flagged: %v", problems)
	}

	// An even count takes the mean of the middle two.
	if got := median([]Measurement{{NsPerOp: 4}, {NsPerOp: 1}, {NsPerOp: 2}, {NsPerOp: 3}},
		func(m Measurement) float64 { return m.NsPerOp }); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestStripProcs(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkFoo-8":          "BenchmarkFoo",
		"BenchmarkFoo-128":        "BenchmarkFoo",
		"BenchmarkFoo":            "BenchmarkFoo",
		"BenchmarkFoo/sub-case-4": "BenchmarkFoo/sub-case",
	} {
		if got := stripProcs(in); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}
