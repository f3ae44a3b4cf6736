package repro

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// scaled returns named benchmarks scaled for fast tests.
func scaled(t *testing.T, factor int, names ...string) []*App {
	t.Helper()
	var out []*App
	for _, n := range names {
		a, err := AppByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, a.Scale(factor))
	}
	return out
}

func TestSuiteExposesTenBenchmarks(t *testing.T) {
	suite := Suite()
	if len(suite) != 10 {
		t.Fatalf("suite has %d apps", len(suite))
	}
	for _, a := range suite {
		if a.Name == "" || a.Class1.String() == "UNKNOWN" || a.Class2.String() == "UNKNOWN" {
			t.Errorf("app %q missing metadata", a.Name)
		}
	}
	if len(Names()) != 10 {
		t.Error("Names() incomplete")
	}
}

func TestAppByNameUnknown(t *testing.T) {
	if _, err := AppByName("nope"); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestRunFCFSBasics(t *testing.T) {
	apps := scaled(t, 32, "spmv", "sgemm")
	res, err := Run(Workload{Apps: apps, HighPriority: -1}, Options{Policy: PolicyFCFS, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("workload incomplete")
	}
	if res.ANTT < 1 {
		t.Errorf("ANTT = %v < 1", res.ANTT)
	}
	if res.STP <= 0 || res.STP > 2 {
		t.Errorf("STP = %v out of (0, 2]", res.STP)
	}
	if res.Fairness < 0 || res.Fairness > 1 {
		t.Errorf("fairness = %v out of [0,1]", res.Fairness)
	}
	if res.Preemptions != 0 {
		t.Errorf("FCFS preempted %d times", res.Preemptions)
	}
	for _, a := range res.Apps {
		if a.Runs < 3 {
			t.Errorf("app %s completed %d runs", a.Name, a.Runs)
		}
		if a.NTT < 1 {
			t.Errorf("app %s NTT = %v < 1", a.Name, a.NTT)
		}
		if a.Isolated <= 0 || a.Turnaround < a.Isolated {
			t.Errorf("app %s timing: turnaround %v isolated %v", a.Name, a.Turnaround, a.Isolated)
		}
	}
}

func TestRunDSSImprovesFairnessOverFCFS(t *testing.T) {
	// Short app vs long app: the paper's headline fairness story.
	apps := scaled(t, 16, "spmv", "lbm")
	fcfs, err := Run(Workload{Apps: apps, HighPriority: -1}, Options{Policy: PolicyFCFS, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dss, err := Run(Workload{Apps: apps, HighPriority: -1},
		Options{Policy: PolicyDSS, Mechanism: MechanismContextSwitch, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if dss.Fairness <= fcfs.Fairness {
		t.Errorf("DSS fairness %v not better than FCFS %v", dss.Fairness, fcfs.Fairness)
	}
	if dss.Preemptions == 0 {
		t.Error("DSS never preempted")
	}
	if dss.ContextSavedBytes == 0 {
		t.Error("context switch saved no context")
	}
}

func TestRunPPQImprovesHighPriorityTurnaround(t *testing.T) {
	apps := scaled(t, 16, "spmv", "lbm", "stencil")
	base, err := Run(Workload{Apps: apps, HighPriority: -1}, Options{Policy: PolicyFCFS, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ppq, err := Run(Workload{Apps: apps, HighPriority: 0},
		Options{Policy: PolicyPPQ, Mechanism: MechanismContextSwitch, Seed: 9, PriorityDMA: true})
	if err != nil {
		t.Fatal(err)
	}
	if ppq.Apps[0].NTT >= base.Apps[0].NTT {
		t.Errorf("PPQ high-priority NTT %v not better than FCFS %v",
			ppq.Apps[0].NTT, base.Apps[0].NTT)
	}
	if !ppq.Apps[0].HighPriority {
		t.Error("high-priority flag not set")
	}
}

func TestRunRecordsTimeline(t *testing.T) {
	apps := scaled(t, 32, "spmv", "sgemm")
	res, err := Run(Workload{Apps: apps},
		Options{Policy: PolicyDSS, Mechanism: MechanismDrain, RecordTimeline: true, MinRuns: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) == 0 {
		t.Fatal("no timeline recorded")
	}
	kinds := map[string]bool{}
	for _, iv := range res.Timeline {
		if iv.End <= iv.Start {
			t.Errorf("degenerate interval %+v", iv)
		}
		kinds[iv.Kind] = true
	}
	if !kinds["run"] || !kinds["setup"] {
		t.Errorf("missing interval kinds: %v", kinds)
	}
	out := RenderTimeline(res.Timeline, 13, 80)
	if !strings.Contains(out, "SM00") || !strings.Contains(out, "legend") {
		t.Error("RenderTimeline output malformed")
	}
}

func TestRenderTimelineEmpty(t *testing.T) {
	if got := RenderTimeline(nil, 13, 80); !strings.Contains(got, "empty") {
		t.Errorf("empty timeline render = %q", got)
	}
}

func TestRunValidatesInputs(t *testing.T) {
	if _, err := Run(Workload{}, Options{}); err == nil {
		t.Error("empty workload accepted")
	}
	apps := scaled(t, 32, "spmv")
	if _, err := Run(Workload{Apps: apps}, Options{Policy: "bogus"}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := Run(Workload{Apps: apps}, Options{Policy: PolicyDSS, Mechanism: "bogus"}); err == nil {
		t.Error("unknown mechanism accepted")
	}
}

func TestIsolatedMatchesSingleAppRun(t *testing.T) {
	app := scaled(t, 32, "sgemm")[0]
	iso, err := Isolated(app, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if iso <= 0 {
		t.Fatal("non-positive isolated time")
	}
	res, err := Run(Workload{Apps: []*App{app}}, Options{Policy: PolicyFCFS, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// A solo workload's NTT is 1 by construction.
	if res.Apps[0].NTT < 0.99 || res.Apps[0].NTT > 1.01 {
		t.Errorf("solo NTT = %v, want ~1", res.Apps[0].NTT)
	}
}

func TestAppBuilder(t *testing.T) {
	app, err := NewApp("custom").
		Kernel(KernelConfig{Name: "k1", ThreadBlocks: 26, TBTime: 10 * time.Microsecond, RegsPerTB: 4000}).
		H2D(1 << 20).
		CPU(5 * time.Microsecond).
		Launch("k1").
		Sync().
		D2H(1 << 19).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Workload{Apps: []*App{app}}, Options{Policy: PolicyFCFS, MinRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Apps[0].Runs != 2 {
		t.Fatalf("custom app did not run: %+v", res.Apps)
	}
}

func TestAppBuilderErrors(t *testing.T) {
	if _, err := NewApp("x").Launch("missing").Build(); err == nil {
		t.Error("launch of unregistered kernel accepted")
	}
	if _, err := NewApp("x").
		Kernel(KernelConfig{Name: "k", ThreadBlocks: 1, TBTime: time.Microsecond}).
		Kernel(KernelConfig{Name: "k", ThreadBlocks: 1, TBTime: time.Microsecond}).
		Launch("k").Build(); err == nil {
		t.Error("duplicate kernel accepted")
	}
	if _, err := NewApp("x").
		Kernel(KernelConfig{Name: "k", ThreadBlocks: 0, TBTime: time.Microsecond}).
		Launch("k").Build(); err == nil {
		t.Error("zero thread blocks accepted")
	}
}

func TestPersistentKernelStarvesUnderDrainButNotContextSwitch(t *testing.T) {
	persistent, err := NewApp("persistent").
		Kernel(KernelConfig{Name: "spin", ThreadBlocks: 13, TBTime: 10 * time.Second, RegsPerTB: 40000}).
		Launch("spin").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	victim := scaled(t, 32, "spmv")[0]
	w := Workload{Apps: []*App{persistent, victim}, HighPriority: 1}

	drain, err := Run(w, Options{Policy: PolicyPPQ, Mechanism: MechanismDrain,
		MaxSimTime: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if drain.Apps[1].Runs != 0 {
		t.Errorf("draining should not be able to preempt a persistent kernel (victim ran %d times)",
			drain.Apps[1].Runs)
	}
	cs, err := Run(w, Options{Policy: PolicyPPQ, Mechanism: MechanismContextSwitch,
		MaxSimTime: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Apps[1].Runs < 3 {
		t.Errorf("context switch should let the victim progress (ran %d times)", cs.Apps[1].Runs)
	}
}

func TestRunAcceptsFlushAndAdaptiveMechanisms(t *testing.T) {
	apps := scaled(t, 32, "spmv", "sgemm")
	w := Workload{Apps: apps, HighPriority: 0}
	for _, mech := range []MechanismKind{MechanismFlush, MechanismAdaptive} {
		res, err := Run(w, Options{Policy: PolicyPPQ, Mechanism: mech, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		if !res.Completed {
			t.Errorf("%s: workload incomplete", mech)
		}
	}
}

func TestFlushPreemptsPersistentIdempotentKernel(t *testing.T) {
	// A persistent kernel can never be drained, but when it is idempotent
	// the flush mechanism cancels its thread blocks outright, so the victim
	// still makes progress — and the discarded execution shows up as wasted
	// work.
	persistent, err := NewApp("persistent").
		Kernel(KernelConfig{Name: "spin", ThreadBlocks: 13, TBTime: 10 * time.Second,
			RegsPerTB: 40000, Idempotent: true}).
		Launch("spin").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	victim := scaled(t, 32, "spmv")[0]
	w := Workload{Apps: []*App{persistent, victim}, HighPriority: 1}
	res, err := Run(w, Options{Policy: PolicyPPQ, Mechanism: MechanismFlush,
		MaxSimTime: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Apps[1].Runs < 3 {
		t.Errorf("flush should let the victim progress (ran %d times)", res.Apps[1].Runs)
	}
	if res.WastedWork <= 0 {
		t.Error("flushing a running kernel must report wasted work")
	}
	if res.ContextSavedBytes != 0 {
		t.Errorf("flush moved %d bytes of context", res.ContextSavedBytes)
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	apps := scaled(t, 32, "histo", "spmv")
	opts := Options{Policy: PolicyDSS, Mechanism: MechanismContextSwitch, Seed: 77}
	a, err := Run(Workload{Apps: apps}, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Workload{Apps: apps}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.EndTime != b.EndTime || a.ANTT != b.ANTT || a.STP != b.STP {
		t.Fatalf("nondeterministic results: %+v vs %+v", a, b)
	}
}

// Property: across random seeds and policies, the metrics stay in their
// mathematical ranges and the simulation completes.
func TestMetricsBoundsProperty(t *testing.T) {
	apps := scaled(t, 64, "spmv", "histo", "mri-q")
	policies := []PolicyKind{PolicyFCFS, PolicyNPQ, PolicyDSS, PolicyPPQ, PolicyTimeSlice}
	f := func(seed uint64, polIdx uint8) bool {
		pol := policies[int(polIdx)%len(policies)]
		res, err := Run(Workload{Apps: apps, HighPriority: 0, Seed: seed%1000 + 1},
			Options{Policy: pol, Mechanism: MechanismContextSwitch, Seed: seed%997 + 1, MinRuns: 1})
		if err != nil {
			t.Logf("run error: %v", err)
			return false
		}
		if !res.Completed {
			t.Logf("incomplete under %s", pol)
			return false
		}
		if res.Fairness < 0 || res.Fairness > 1.0000001 {
			t.Logf("fairness out of range: %v", res.Fairness)
			return false
		}
		if res.STP <= 0 || res.STP > 3.0000001 {
			t.Logf("STP out of range: %v", res.STP)
			return false
		}
		if res.Utilization < 0 || res.Utilization > 1.0000001 {
			t.Logf("utilization out of range: %v", res.Utilization)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
