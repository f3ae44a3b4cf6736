package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/parboil"
	"repro/internal/policy"
	"repro/internal/preempt"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"
)

// scaledSuite returns the Parboil suite scaled down for fast tests.
func scaledSuite(t testing.TB, factor int) []*trace.App {
	t.Helper()
	suite := parboil.Suite()
	out := make([]*trace.App, len(suite))
	for i, a := range suite {
		out[i] = a.Scale(factor)
		if err := out[i].Validate(); err != nil {
			t.Fatalf("scaled app %s invalid: %v", a.Name, err)
		}
	}
	return out
}

func testRunConfig() RunConfig {
	cfg := system.DefaultConfig()
	cfg.Seed = 42
	return RunConfig{
		Sys:     cfg,
		MinRuns: 3,
	}
}

func TestIsolatedBaselines(t *testing.T) {
	suite := scaledSuite(t, 32)
	rc := testRunConfig()
	for _, app := range suite {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			iso, err := Isolated(app, rc)
			if err != nil {
				t.Fatalf("Isolated(%s): %v", app.Name, err)
			}
			if iso <= 0 {
				t.Fatalf("Isolated(%s) = %v, want positive", app.Name, iso)
			}
		})
	}
}

// TestCacheKeysByAppIdentity pins the baseline cache's key: two distinct
// applications that share a name must each get their own baseline, and a
// repeat lookup must return the memoized value.
func TestCacheKeysByAppIdentity(t *testing.T) {
	suite := scaledSuite(t, 32)
	rc := testRunConfig()
	a := suite[0]
	alias := *suite[1]
	alias.Name = a.Name
	wantA, err := Isolated(a, rc)
	if err != nil {
		t.Fatal(err)
	}
	wantAlias, err := Isolated(&alias, rc)
	if err != nil {
		t.Fatal(err)
	}
	if wantA == wantAlias {
		t.Fatalf("apps %s and %s have equal baselines %v; the test cannot tell them apart",
			suite[0].Name, suite[1].Name, wantA)
	}
	c := NewCache(rc)
	for pass := 0; pass < 2; pass++ {
		for _, tc := range []struct {
			app  *trace.App
			want sim.Time
		}{{a, wantA}, {&alias, wantAlias}} {
			got, err := c.Isolated(tc.app)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("pass %d: cached baseline of %s (%p) = %v, want %v", pass, tc.app.Name, tc.app, got, tc.want)
			}
		}
	}
}

func TestRunFCFSWorkloadCompletes(t *testing.T) {
	suite := scaledSuite(t, 32)
	rc := testRunConfig()
	rc.Policy = func(n int) core.Policy { return policy.NewFCFS() }
	spec := Spec{
		Name:         "fcfs-2p",
		Apps:         []*trace.App{suite[3], suite[6]}, // spmv, sgemm
		HighPriority: -1,
		Seed:         7,
	}
	res, err := Run(spec, rc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Completed {
		t.Fatalf("workload did not complete; end=%v apps=%+v", res.EndTime, res.Apps)
	}
	for _, a := range res.Apps {
		if a.Runs < rc.MinRuns {
			t.Errorf("app %s completed %d runs, want >= %d", a.Name, a.Runs, rc.MinRuns)
		}
		if a.MeanTurnaround <= 0 {
			t.Errorf("app %s mean turnaround %v, want positive", a.Name, a.MeanTurnaround)
		}
	}
}

func TestRunDSSWithBothMechanisms(t *testing.T) {
	suite := scaledSuite(t, 32)
	for _, mech := range []core.Mechanism{preempt.ContextSwitch{}, preempt.Drain{}} {
		mech := mech
		t.Run(mech.Name(), func(t *testing.T) {
			rc := testRunConfig()
			rc.Policy = func(n int) core.Policy { return policy.NewDSS(n) }
			rc.Mechanism = func() core.Mechanism { return mech }
			spec := Spec{
				Name:         "dss-4p",
				Apps:         []*trace.App{suite[1], suite[3], suite[4], suite[6]},
				HighPriority: -1,
				Seed:         11,
			}
			res, err := Run(spec, rc)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !res.Completed {
				t.Fatalf("workload did not complete; end=%v", res.EndTime)
			}
		})
	}
}

func TestRunPPQPrioritizesHighPriorityApp(t *testing.T) {
	suite := scaledSuite(t, 32)
	rc := testRunConfig()
	rc.Policy = func(n int) core.Policy { return policy.NewPPQ(false) }
	rc.Mechanism = func() core.Mechanism { return preempt.ContextSwitch{} }
	spec := Spec{
		Name:         "ppq-3p",
		Apps:         []*trace.App{suite[3], suite[0], suite[9]}, // spmv prioritized vs lbm, mri-gridding
		HighPriority: 0,
		Seed:         3,
	}
	res, err := Run(spec, rc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Completed {
		t.Fatalf("workload did not complete; end=%v", res.EndTime)
	}
	if res.Stats.Preemptions == 0 {
		t.Error("PPQ with competing long kernels performed no preemptions")
	}
}

func TestRunIsDeterministic(t *testing.T) {
	suite := scaledSuite(t, 32)
	run := func() *Result {
		rc := testRunConfig()
		rc.Policy = func(n int) core.Policy { return policy.NewDSS(n) }
		rc.Mechanism = func() core.Mechanism { return preempt.ContextSwitch{} }
		spec := Spec{
			Name:         "det",
			Apps:         []*trace.App{suite[1], suite[3], suite[6]},
			HighPriority: -1,
			Seed:         99,
		}
		res, err := Run(spec, rc)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.EndTime != b.EndTime {
		t.Fatalf("end times differ: %v vs %v", a.EndTime, b.EndTime)
	}
	for i := range a.Apps {
		if a.Apps[i].MeanTurnaround != b.Apps[i].MeanTurnaround {
			t.Errorf("app %s turnaround differs: %v vs %v",
				a.Apps[i].Name, a.Apps[i].MeanTurnaround, b.Apps[i].MeanTurnaround)
		}
	}
}

func TestRandomWorkloadGeneration(t *testing.T) {
	suite := scaledSuite(t, 32)
	specs := Random(suite, 4, 20, 5, true)
	if len(specs) != 20 {
		t.Fatalf("got %d specs, want 20", len(specs))
	}
	hpCount := make(map[string]int)
	for _, s := range specs {
		if len(s.Apps) != 4 {
			t.Errorf("workload %s has %d apps, want 4", s.Name, len(s.Apps))
		}
		if s.HighPriority != 0 {
			t.Errorf("workload %s high-priority index = %d, want 0", s.Name, s.HighPriority)
		}
		hpCount[s.Apps[0].Name]++
		seen := map[string]bool{}
		for _, a := range s.Apps {
			if seen[a.Name] {
				t.Errorf("workload %s has duplicate app %s", s.Name, a.Name)
			}
			seen[a.Name] = true
		}
	}
	// 20 workloads cycling 10 benchmarks: each appears as high-priority twice.
	for name, n := range hpCount {
		if n != 2 {
			t.Errorf("app %s is high-priority in %d workloads, want 2", name, n)
		}
	}
	// Determinism.
	again := Random(suite, 4, 20, 5, true)
	for i := range specs {
		for j := range specs[i].Apps {
			if specs[i].Apps[j].Name != again[i].Apps[j].Name {
				t.Fatalf("workload generation not deterministic")
			}
		}
	}
}

func TestMPSModeSharesOneContext(t *testing.T) {
	suite := scaledSuite(t, 32)
	rc := testRunConfig()
	rc.Policy = func(n int) core.Policy { return policy.NewFCFS() }
	rc.MPS = true
	spec := Spec{
		Name:         "mps-2p",
		Apps:         []*trace.App{suite[3], suite[6]},
		HighPriority: -1,
		Seed:         7,
	}
	res, err := Run(spec, rc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Completed {
		t.Fatal("MPS workload did not complete")
	}
}

func TestMPSImprovesConcurrencyOverSerializedFCFS(t *testing.T) {
	suite := scaledSuite(t, 16)
	// spmv (short) + lbm (long): FCFS serializes their contexts; MPS lets
	// them share the engine back-to-back, so the short app's turnaround
	// improves.
	spec := Spec{
		Name:         "mps-vs-fcfs",
		Apps:         []*trace.App{suite[3], suite[0]},
		HighPriority: -1,
		Seed:         7,
	}
	run := func(mps bool) *Result {
		rc := testRunConfig()
		rc.Policy = func(n int) core.Policy { return policy.NewFCFS() }
		rc.MPS = mps
		res, err := Run(spec, rc)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal("incomplete")
		}
		return res
	}
	serialized := run(false)
	mps := run(true)
	if mps.Apps[0].MeanTurnaround >= serialized.Apps[0].MeanTurnaround {
		t.Errorf("MPS did not help the short app: %v vs %v",
			mps.Apps[0].MeanTurnaround, serialized.Apps[0].MeanTurnaround)
	}
}

// TestGoldenRegression pins exact simulation outcomes for a fixed seed and
// configuration. It exists to detect unintended behavioural changes in the
// scheduling framework; if a change to the simulator is *intentional*,
// update the constants (and note it in the commit).
func TestGoldenRegression(t *testing.T) {
	suite := scaledSuite(t, 32)
	rc := testRunConfig()
	rc.Policy = func(n int) core.Policy { return policy.NewDSS(n) }
	rc.Mechanism = func() core.Mechanism { return preempt.ContextSwitch{} }
	spec := Spec{
		Name:         "golden",
		Apps:         []*trace.App{suite[1], suite[3], suite[6]},
		HighPriority: -1,
		Seed:         99,
	}
	res, err := Run(spec, rc)
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantEnd = 1385784 // ns
		wantTBs = 1247
	)
	if int64(res.EndTime) != wantEnd {
		t.Errorf("EndTime = %d ns, golden %d ns", int64(res.EndTime), wantEnd)
	}
	if res.Stats.TBsCompleted != wantTBs {
		t.Errorf("TBsCompleted = %d, golden %d", res.Stats.TBsCompleted, wantTBs)
	}
}

// TestIsolatedTimeMatchesAnalyticModel checks the end-to-end composition of
// the machine against a closed-form estimate for lbm: 100 sequential
// launches of StreamCollide (18000 TBs of 2.42us at occupancy 15 over 13
// SMs) plus CPU phases, issue overheads and 24 MB of PCIe transfers.
func TestIsolatedTimeMatchesAnalyticModel(t *testing.T) {
	app, err := parboil.App("lbm")
	if err != nil {
		t.Fatal(err)
	}
	rc := testRunConfig()
	rc.Sys.Jitter = 0
	rc.MinRuns = 1
	iso, err := Isolated(app, rc)
	if err != nil {
		t.Fatal(err)
	}
	// Kernel makespan per launch: ceil-ish waves of 15*13 concurrent TBs.
	kernel := 100.0 * (18000.0 * 2.42 / (15 * 13)) // us
	cpu := 100.0*10 + 2.0*102                      // phases + issue overheads
	xfer := 24.0 * 1024 * 1024 / 8e9 * 1e6         // us at 8 GB/s
	est := kernel + cpu + xfer
	got := iso.Microseconds()
	if got < est*0.95 || got > est*1.25 {
		t.Errorf("isolated lbm = %.0f us, analytic estimate %.0f us (tolerance -5%%/+25%%)", got, est)
	}
}

func TestEventLimitReportsPartialResult(t *testing.T) {
	suite := scaledSuite(t, 32)
	rc := testRunConfig()
	rc.Policy = func(n int) core.Policy { return policy.NewFCFS() }
	rc.MaxEvents = 500 // far too few to finish
	spec := Spec{
		Name:         "limited",
		Apps:         []*trace.App{suite[0], suite[9]},
		HighPriority: -1,
		Seed:         3,
	}
	res, err := Run(spec, rc)
	if err != nil {
		t.Fatalf("event limit should yield a partial result, got error: %v", err)
	}
	if res.Completed {
		t.Fatal("500 events cannot complete the workload")
	}
}
