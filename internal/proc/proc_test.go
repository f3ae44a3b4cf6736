package proc

import (
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/parboil"
	"repro/internal/policy"
	"repro/internal/preempt"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"
)

func testSystem(t *testing.T) *system.System {
	t.Helper()
	cfg := system.DefaultConfig()
	cfg.Jitter = 0
	sys, err := system.New(cfg, policy.NewFCFS(), preempt.Drain{})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// newProc creates a process for app in a new context of the given
// priority.
func newProc(sys *system.System, app *trace.App, priority int) (*Process, error) {
	ctx, err := sys.NewContext(app.Name, priority)
	if err != nil {
		return nil, err
	}
	return NewWithContext(sys, ctx, app)
}

func simpleApp(name string) *trace.App {
	return &trace.App{
		Name: name,
		Kernels: []trace.KernelSpec{{
			Name: "k", NumTBs: 13, TBTime: sim.Microseconds(10),
			RegsPerTB: 4000, ThreadsPerTB: 128,
		}},
		Ops: []trace.Op{
			{Kind: trace.OpH2D, Bytes: 64 * 1024},
			{Kind: trace.OpCPU, Dur: sim.Microseconds(20)},
			{Kind: trace.OpLaunch, Kernel: 0},
			{Kind: trace.OpSync},
			{Kind: trace.OpD2H, Bytes: 16 * 1024},
		},
		Class1: trace.ClassShort,
		Class2: trace.ClassShort,
	}
}

func TestProcessRunsTraceToCompletion(t *testing.T) {
	sys := testSystem(t)
	p, err := newProc(sys, simpleApp("app"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(0); err != nil {
		t.Fatal(err)
	}
	if err := sys.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if p.CompletedRuns() != 1 {
		t.Fatalf("completed %d runs, want 1", p.CompletedRuns())
	}
	rec := p.Runs()[0]
	if rec.Start != 0 || rec.End != sys.Eng.Now() {
		t.Errorf("run record %+v inconsistent with clock %v", rec, sys.Eng.Now())
	}
	// Sanity of the composition: the run must take at least the CPU phase
	// plus the kernel execution (13 TBs on 13 SMs = 10us) plus transfers.
	min := sim.Microseconds(20 + 10)
	if rec.Turnaround() < min {
		t.Errorf("turnaround %v implausibly small (< %v)", rec.Turnaround(), min)
	}
}

func TestProcessLoopReplaysAndRecordsEachRun(t *testing.T) {
	sys := testSystem(t)
	p, err := newProc(sys, simpleApp("app"), 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Loop = true
	runs := 0
	p.OnRunComplete = func(p *Process, rec RunRecord) {
		runs++
		if runs >= 4 {
			sys.Eng.Stop()
		}
	}
	p.Start(0)
	sys.Eng.Run()
	if p.CompletedRuns() != 4 {
		t.Fatalf("completed %d runs, want 4", p.CompletedRuns())
	}
	recs := p.Runs()
	for i := 1; i < len(recs); i++ {
		if recs[i].Run != i {
			t.Errorf("run index %d, want %d", recs[i].Run, i)
		}
	}
	if p.MeanTurnaround() <= 0 {
		t.Error("mean turnaround not positive")
	}
}

func TestSyncBlocksUntilCommandsComplete(t *testing.T) {
	sys := testSystem(t)
	app := simpleApp("app")
	// CPU marker after the sync: it must start only after the kernel
	// completed. Layout: launch; sync; cpu(1us); end.
	app.Ops = []trace.Op{
		{Kind: trace.OpLaunch, Kernel: 0},
		{Kind: trace.OpSync},
		{Kind: trace.OpCPU, Dur: sim.Microseconds(1)},
	}
	p, err := newProc(sys, app, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Start(0)
	sys.Eng.Run()
	// Kernel: setup 1us + 10us exec; sync releases at >= 11us; +1us CPU.
	end := p.Runs()[0].End
	if end < sim.Microseconds(12) {
		t.Errorf("run ended at %v: sync did not wait for the kernel", end)
	}
}

func TestAsyncEnqueueDoesNotBlockCPU(t *testing.T) {
	sys := testSystem(t)
	app := simpleApp("app")
	// Two launches back-to-back with no sync: the second enqueue happens
	// while the first kernel is still running (stream keeps them in order
	// on the GPU, but the CPU does not wait).
	app.Ops = []trace.Op{
		{Kind: trace.OpLaunch, Kernel: 0},
		{Kind: trace.OpLaunch, Kernel: 0},
	}
	p, err := newProc(sys, app, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Start(0)
	sys.Eng.Run()
	// Stream semantics: 2 kernels of ~11us each run sequentially.
	end := p.Runs()[0].End
	if end < sim.Microseconds(21) {
		t.Errorf("end %v: kernels from one stream must serialize", end)
	}
	if end > sim.Microseconds(30) {
		t.Errorf("end %v: too slow; enqueue must not block the CPU", end)
	}
}

func TestStreamsOverlapTransfersAndKernels(t *testing.T) {
	sys := testSystem(t)
	app := simpleApp("app")
	// Stream 0: kernel. Stream 1: big transfer. They target different
	// engines and must overlap.
	app.Ops = []trace.Op{
		{Kind: trace.OpLaunch, Kernel: 0, Stream: 0},
		{Kind: trace.OpH2D, Bytes: 8 << 20, Stream: 1}, // ~1ms at 8 GB/s
	}
	p, err := newProc(sys, app, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Start(0)
	sys.Eng.Run()
	end := p.Runs()[0].End
	dmaCfg := sys.DMA.Config()
	transferTime := dmaCfg.TransferTime(8 << 20)
	// The run ends when the slower of the two finishes (the transfer);
	// serialized execution would add the kernel's ~11us on top.
	slack := sim.Microseconds(10)
	if end > transferTime+slack {
		t.Errorf("end %v vs transfer %v: kernel and transfer did not overlap", end, transferTime)
	}
}

func TestSameStreamCommandsSerialize(t *testing.T) {
	sys := testSystem(t)
	app := simpleApp("app")
	app.Ops = []trace.Op{
		{Kind: trace.OpH2D, Bytes: 4 << 20, Stream: 0},
		{Kind: trace.OpLaunch, Kernel: 0, Stream: 0},
	}
	p, err := newProc(sys, app, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Start(0)
	sys.Eng.Run()
	dmaCfg := sys.DMA.Config()
	transferTime := dmaCfg.TransferTime(4 << 20)
	end := p.Runs()[0].End
	// Same stream: the kernel waits for the transfer.
	if end < transferTime+sim.Microseconds(10) {
		t.Errorf("end %v: kernel overlapped its own stream's transfer (%v)", end, transferTime)
	}
}

func TestTransferPriorityComesFromContext(t *testing.T) {
	cfg := system.DefaultConfig()
	cfg.Jitter = 0
	cfg.PCIe.Priority = true
	sys, err := system.New(cfg, policy.NewNPQ(), preempt.Drain{})
	if err != nil {
		t.Fatal(err)
	}
	mkApp := func(name string) *trace.App {
		a := simpleApp(name)
		a.Ops = []trace.Op{{Kind: trace.OpH2D, Bytes: 2 << 20},
			{Kind: trace.OpLaunch, Kernel: 0}}
		return a
	}
	lo, err := newProc(sys, mkApp("lo"), 0)
	if err != nil {
		t.Fatal(err)
	}
	lo2, err := newProc(sys, mkApp("lo2"), 0)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := newProc(sys, mkApp("hi"), 3)
	if err != nil {
		t.Fatal(err)
	}
	// lo starts first and occupies the transfer engine; lo2 and hi queue.
	lo.Start(0)
	lo2.Start(sim.Microseconds(1))
	hi.Start(sim.Microseconds(2))
	sys.Eng.Run()
	if hi.Runs()[0].End >= lo2.Runs()[0].End {
		t.Errorf("priority transfer did not jump the DMA queue: hi=%v lo2=%v",
			hi.Runs()[0].End, lo2.Runs()[0].End)
	}
}

func TestProcessDoubleStartFails(t *testing.T) {
	sys := testSystem(t)
	p, err := newProc(sys, simpleApp("app"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(0); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(1); err == nil {
		t.Fatal("double Start succeeded")
	}
}

func TestProcessRejectsInvalidApp(t *testing.T) {
	sys := testSystem(t)
	bad := simpleApp("bad")
	bad.Ops = nil
	if _, err := newProc(sys, bad, 0); err == nil {
		t.Fatal("invalid app accepted")
	}
}

func TestEachProcessGetsOwnContext(t *testing.T) {
	sys := testSystem(t)
	p1, err := newProc(sys, simpleApp("a"), 0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := newProc(sys, simpleApp("b"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Ctx().ID == p2.Ctx().ID {
		t.Fatal("processes share a GPU context")
	}
	if p2.Ctx().Priority != 1 {
		t.Errorf("priority not propagated: %d", p2.Ctx().Priority)
	}
}

func TestIssueOverheadAccumulates(t *testing.T) {
	sys := testSystem(t)
	app := simpleApp("app")
	// 10 enqueues with no GPU work dependency beyond the first kernel.
	app.Ops = nil
	for i := 0; i < 10; i++ {
		app.Ops = append(app.Ops, trace.Op{Kind: trace.OpLaunch, Kernel: 0})
	}
	p, err := newProc(sys, app, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Start(0)
	var cpuDoneBy sim.Time
	// All enqueues take 10*IssueOverhead of CPU time.
	cpuDoneBy = sim.Time(10) * IssueOverhead
	sys.Eng.Run()
	end := p.Runs()[0].End
	if end < cpuDoneBy {
		t.Errorf("run ended before the CPU could have issued all commands: %v < %v", end, cpuDoneBy)
	}
}

// runApps starts one process per app on sys, app i at starts[i], runs the
// engine to completion and returns each process's run records.
func runApps(t *testing.T, sys *system.System, starts []sim.Time, apps ...*trace.App) [][]RunRecord {
	t.Helper()
	procs := make([]*Process, len(apps))
	for i, app := range apps {
		p, err := newProc(sys, app, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start(starts[i]); err != nil {
			t.Fatal(err)
		}
		procs[i] = p
	}
	if err := sys.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	recs := make([][]RunRecord, len(procs))
	for i, p := range procs {
		recs[i] = p.Runs()
	}
	return recs
}

// withOps returns simpleApp(name) replaying ops.
func withOps(name string, ops ...trace.Op) *trace.App {
	app := simpleApp(name)
	app.Ops = ops
	return app
}

func cpuOp(d sim.Time) trace.Op { return trace.Op{Kind: trace.OpCPU, Dur: d} }

var (
	syncOp   = trace.Op{Kind: trace.OpSync}
	launchOp = trace.Op{Kind: trace.OpLaunch, Kernel: 0}
)

// A Sync with no outstanding commands is a no-op, so separating adjacent
// CPU ops with Syncs gives an unfolded twin of the same trace: on an
// uncontended host both must replay identically, while the folded trace
// dispatches one CPU phase where the twin dispatches three.
func TestCPURunFoldMatchesUnfoldedTwin(t *testing.T) {
	a, b, c := sim.Microseconds(3), sim.Microseconds(5), sim.Time(7001)
	folded := withOps("folded", cpuOp(a), cpuOp(b), cpuOp(c), launchOp, syncOp)
	twin := withOps("twin", cpuOp(a), syncOp, cpuOp(b), syncOp, cpuOp(c), launchOp, syncOp)

	sysF, sysT := testSystem(t), testSystem(t)
	got := runApps(t, sysF, []sim.Time{0}, folded)
	want := runApps(t, sysT, []sim.Time{0}, twin)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("folded run %+v, unfolded twin %+v", got, want)
	}
	// One CPU phase plus one issue micro-phase, against three plus one.
	if d := sysF.CPU.Dispatched; d != 2 {
		t.Errorf("folded trace dispatched %d CPU phases, want 2", d)
	}
	if d := sysT.CPU.Dispatched; d != 4 {
		t.Errorf("unfolded twin dispatched %d CPU phases, want 4", d)
	}
}

// Every maximal run of adjacent CPU ops is one CPU phase and every command
// costs one issue micro-phase, so a run dispatches exactly runs+commands
// phases on the host CPU. The scaled Parboil traces hold long CPU runs
// (lbm keeps 100 CPU ops around one launch at scale 128).
func TestCPUDispatchesOnePhasePerRunAndCommand(t *testing.T) {
	for _, name := range []string{"lbm", "spmv", "sgemm"} {
		t.Run(name, func(t *testing.T) {
			full, err := parboil.App(name)
			if err != nil {
				t.Fatal(err)
			}
			app := full.Scale(128)
			var runs, cmds, cpuOps uint64
			for i, op := range app.Ops {
				switch op.Kind {
				case trace.OpCPU:
					cpuOps++
					if i == 0 || app.Ops[i-1].Kind != trace.OpCPU {
						runs++
					}
				case trace.OpH2D, trace.OpD2H, trace.OpLaunch:
					cmds++
				}
			}
			sys := testSystem(t)
			runApps(t, sys, []sim.Time{0}, app)
			if got, want := sys.CPU.Dispatched, runs+cmds; got != want {
				t.Errorf("dispatched %d CPU phases, want %d runs + %d commands = %d (trace has %d CPU ops)",
					got, runs, cmds, want, cpuOps)
			}
		})
	}
}

// On a contended host the fold is a model change: cpu.Model makes one SMT
// slowdown decision, and one rounding, per phase at dispatch. A folded run
// must therefore replay exactly like a single CPU op of the summed
// duration, and differently from its unfolded twin, whose later ops are
// dispatched while the second process holds the SMT sibling.
func TestCPURunFoldOneSMTDecisionPerRun(t *testing.T) {
	contended := func(t *testing.T) *system.System {
		t.Helper()
		cfg := system.DefaultConfig()
		cfg.Jitter = 0
		cfg.CPU = cpu.Config{Cores: 1, ThreadsPerCore: 2, SMTSlowdown: 1.5}
		sys, err := system.New(cfg, policy.NewFCFS(), preempt.Drain{})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	// Odd nanosecond durations: per-op truncation of d*1.5 loses 0.5 ns
	// on each op, a single truncation loses it once.
	d := sim.Time(1001)
	starts := []sim.Time{0, 500}
	run := func(ops ...trace.Op) [][]RunRecord {
		return runApps(t, contended(t), starts, withOps("a", ops...), withOps("b", ops...))
	}
	folded := run(cpuOp(d), cpuOp(d), cpuOp(d), launchOp, syncOp)
	single := run(cpuOp(3*d), launchOp, syncOp)
	twin := run(cpuOp(d), syncOp, cpuOp(d), syncOp, cpuOp(d), launchOp, syncOp)
	if !reflect.DeepEqual(folded, single) {
		t.Errorf("folded run %+v, want the single-phase replay %+v", folded, single)
	}
	if reflect.DeepEqual(folded, twin) {
		t.Errorf("folded run equals its unfolded twin %+v under SMT contention; the test no longer pins the fold", twin)
	}
}

// TestReuseReplaysLikeAFreshProcess pins Reuse: a finished process rerun in
// a new context produces the same run as a fresh process started at the
// same time on a twin machine, and a process with a run in flight (or a
// looping one) refuses reuse.
func TestReuseReplaysLikeAFreshProcess(t *testing.T) {
	sys := testSystem(t)
	app := simpleApp("app")
	p, err := newProc(sys, app, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Start(0)
	tab := &new(PhaseTables).Build([]*trace.App{app})[0]
	if err := p.Reuse(sys.Contexts.Lookup(p.Ctx().ID), tab); err == nil {
		t.Fatal("Reuse of a process with a run in flight succeeded")
	}
	if err := sys.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	ctx, err := sys.NewContext("again", 1)
	if err != nil {
		t.Fatal(err)
	}
	start := sys.Eng.Now()
	if err := p.Reuse(ctx, tab); err != nil {
		t.Fatal(err)
	}
	if p.Ctx() != ctx || p.CompletedRuns() != 0 {
		t.Fatalf("after Reuse: ctx %d, %d runs", p.Ctx().ID, p.CompletedRuns())
	}
	p.Start(start)
	if err := sys.Eng.Run(); err != nil {
		t.Fatal(err)
	}

	// The twin: a fresh machine idles until the same start, then runs a
	// fresh process with the same priority.
	twin := testSystem(t)
	q, err := newProc(twin, app, 1)
	if err != nil {
		t.Fatal(err)
	}
	q.Start(start)
	if err := twin.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	got, want := p.Runs(), q.Runs()
	if len(got) != 1 || len(want) != 1 || got[0].Turnaround() != want[0].Turnaround() || got[0].FirstIssue-got[0].Start != want[0].FirstIssue-want[0].Start {
		t.Errorf("reused run %+v, fresh run %+v", got, want)
	}

	p.Loop = true
	if err := p.Reuse(ctx, tab); err == nil {
		t.Error("Reuse of a looping process succeeded")
	}
}

// foldApp is a trace whose CPU runs sit at every place a run can: at the
// start, between two commands, just before a sync, as a one-op run, and at
// the end. Every CPU duration is an odd, distinct nanosecond count, so a
// run that loses or gains an op changes the sum.
func foldApp(name string) (app *trace.App, runs [][2]int, durs []sim.Time) {
	us := func(n int) sim.Time { return sim.Microseconds(float64(n)) + sim.Time(2*n+1) }
	h2d := trace.Op{Kind: trace.OpH2D, Bytes: 4096}
	d2h := trace.Op{Kind: trace.OpD2H, Bytes: 4096}
	app = withOps(name,
		cpuOp(us(101)), cpuOp(us(103)), // 0-1: at the start
		h2d,                                            // 2
		cpuOp(us(107)), cpuOp(us(109)), cpuOp(us(113)), // 3-5: between two commands
		d2h,                            // 6
		cpuOp(us(127)), cpuOp(us(131)), // 7-8: just before a sync
		syncOp,                         // 9
		cpuOp(us(137)),                 // 10: a one-op run
		launchOp,                       // 11
		cpuOp(us(139)), cpuOp(us(149)), // 12-13: at the end
	)
	runs = [][2]int{{0, 2}, {3, 6}, {7, 9}, {10, 11}, {12, 14}}
	for _, r := range runs {
		var d sim.Time
		for _, op := range app.Ops[r[0]:r[1]] {
			d += op.Dur
		}
		durs = append(durs, d)
	}
	return app, runs, durs
}

// twoRunApp has a different run layout from foldApp at every index.
func twoRunApp() *trace.App {
	return withOps("two", syncOp, cpuOp(sim.Microseconds(211)), launchOp,
		cpuOp(sim.Microseconds(223)), cpuOp(sim.Microseconds(227)), syncOp)
}

// checkTable requires t's CPU phases to be the runs, in order: each starts
// at its run's first op, its next phase at the run's end, and it carries
// the run's summed duration.
func checkTable(t *testing.T, tab *PhaseTable, runs [][2]int, durs []sim.Time) {
	t.Helper()
	k := 0
	for j, ph := range tab.phases {
		if trace.OpKind(ph.kind) != trace.OpCPU {
			continue
		}
		end := len(tab.app.Ops)
		if j+1 < len(tab.phases) {
			end = int(tab.phases[j+1].op)
		}
		if k >= len(runs) {
			t.Errorf("extra CPU phase over ops [%d, %d)", ph.op, end)
		} else if int(ph.op) != runs[k][0] || end != runs[k][1] || ph.dur != durs[k] {
			t.Errorf("run %d: CPU phase over ops [%d, %d) of %v, want [%d, %d) of %v",
				k, ph.op, end, ph.dur, runs[k][0], runs[k][1], durs[k])
		}
		k++
	}
	if k != len(runs) {
		t.Errorf("%d CPU phases, want %d", k, len(runs))
	}
}

// runOnce replays p once from the machine's current time and returns the
// run record and the CPU phases the replay dispatched.
func runOnce(t *testing.T, sys *system.System, p *Process) (RunRecord, uint64) {
	t.Helper()
	before := sys.CPU.Dispatched
	if err := p.Start(sys.Eng.Now()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if p.CompletedRuns() != 1 {
		t.Fatalf("%d runs completed, want 1", p.CompletedRuns())
	}
	return p.Runs()[0], sys.CPU.Dispatched - before
}

// TestPhaseTableFoldsEachRunOnce pins the replay's phase table: each maximal
// CPU run is one cpu.Model phase of the run's summed duration, the replay
// resumes exactly past the run, and the run's end is the hand-computed sum
// of the CPU phases and the three commands' issue micro-phases (each 4 KiB
// transfer finishes inside the CPU phase that follows it, so the sync and
// the final implicit sync never wait; nor does the kernel outlast the
// 288 us run after its launch). Tables built together share one array, and
// a rebuild for another set of apps reuses it: Reuse with a different app,
// before or after the rebuild, never replays stale run boundaries.
func TestPhaseTableFoldsEachRunOnce(t *testing.T) {
	app, runs, durs := foldApp("fold")
	var total sim.Time
	for _, d := range durs {
		total += d
	}
	const cmds = 3
	sys := testSystem(t)
	if tt := sys.Cfg.PCIe.TransferTime(4096); tt >= durs[1] {
		t.Fatalf("transfer time %v does not fit in a CPU run; the hand-computed end below assumes it does", tt)
	}
	wantEnd := total + cmds*IssueOverhead
	wantPhases := uint64(len(runs) + cmds)
	check := func(what string, p *Process) {
		t.Helper()
		if p.App() != app {
			t.Fatalf("%s: process replays %s, want %s", what, p.App().Name, app.Name)
		}
		checkTable(t, &PhaseTable{app: app, phases: p.plan}, runs, durs)
		if rec, phases := runOnce(t, sys, p); rec.End-rec.Start != wantEnd || phases != wantPhases {
			t.Errorf("%s: run took %v in %d CPU phases, want %v in %d", what, rec.End-rec.Start, phases, wantEnd, wantPhases)
		}
	}
	// other: sync, 211us, launch, 223+227us, sync.
	other := twoRunApp()
	otherRuns, otherDurs := [][2]int{{1, 2}, {3, 5}}, []sim.Time{sim.Microseconds(211), sim.Microseconds(450)}
	checkOther := func(what string, p *Process) {
		t.Helper()
		checkTable(t, &PhaseTable{app: other, phases: p.plan}, otherRuns, otherDurs)
		if rec, phases := runOnce(t, sys, p); phases != 3 || rec.End-rec.Start < sim.Microseconds(211+450)+IssueOverhead {
			t.Errorf("%s: %d CPU phases, run %v; want 3 phases and at least %v",
				what, phases, rec.End-rec.Start, sim.Microseconds(211+450)+IssueOverhead)
		}
	}
	reuse := func(p *Process, tab *PhaseTable) {
		t.Helper()
		ctx, err := sys.NewContext("again", 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Reuse(ctx, tab); err != nil {
			t.Fatal(err)
		}
	}

	p, err := newProc(sys, app, 0)
	if err != nil {
		t.Fatal(err)
	}
	check("fresh process", p)
	if busy := sys.CPU.BusyTime; busy != wantEnd {
		t.Errorf("CPU busy %v, want the runs' and issues' sum %v", busy, wantEnd)
	}

	var ts PhaseTables
	tabs := ts.Build([]*trace.App{other, app})
	reuse(p, &tabs[0])
	checkOther("reused with another app", p)
	reuse(p, &tabs[1])
	check("reused back", p)

	// The rebuild overwrites the arrays the tables above used.
	tabs = ts.Build([]*trace.App{app, other})
	reuse(p, &tabs[1])
	checkOther("rebuilt, reused with another app", p)
	reuse(p, &tabs[0])
	check("rebuilt, reused back", p)
}
