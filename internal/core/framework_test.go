package core

import (
	"math"
	"testing"

	"repro/internal/gmem"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/trace"
)

// scriptPolicy is a controllable policy for framework tests. Its default
// behaviour admits commands in arrival order and greedily assigns idle SMs
// to the first active kernel with work.
type scriptPolicy struct {
	BasePolicy
	pickPending func(fw *Framework) int
	onActivated func(fw *Framework, k KernelID)
	onSMIdle    func(fw *Framework, smID int)
	idleEvents  int
	finished    []KernelID
}

func (p *scriptPolicy) Name() string { return "script" }

func (p *scriptPolicy) PickPending(fw *Framework) int {
	if p.pickPending != nil {
		return p.pickPending(fw)
	}
	ctxs := fw.PendingContexts()
	if len(ctxs) == 0 {
		return -1
	}
	return ctxs[0]
}

func (p *scriptPolicy) greedyAssign(fw *Framework) {
	for {
		smID := fw.FirstIdleSM()
		if smID < 0 {
			return
		}
		assigned := false
		for _, id := range fw.Active() {
			if fw.WantsMoreSMs(id) {
				fw.AssignSM(smID, id)
				assigned = true
				break
			}
		}
		if !assigned {
			return
		}
	}
}

func (p *scriptPolicy) OnActivated(fw *Framework, k KernelID) {
	if p.onActivated != nil {
		p.onActivated(fw, k)
		return
	}
	p.greedyAssign(fw)
}

func (p *scriptPolicy) OnSMIdle(fw *Framework, smID int) {
	p.idleEvents++
	if p.onSMIdle != nil {
		p.onSMIdle(fw, smID)
		return
	}
	p.greedyAssign(fw)
}

func (p *scriptPolicy) OnKernelFinished(fw *Framework, k KernelID) {
	p.finished = append(p.finished, k)
}

// drainMech is a copy of the draining mechanism (the real one lives in
// internal/preempt, which imports this package).
type drainMech struct{}

func (drainMech) Name() string { return "drain" }
func (drainMech) Preempt(fw *Framework, smID int) {
	if fw.SMResident(smID) == 0 {
		fw.PreemptionDone(smID)
		return
	}
	fw.MarkDraining(smID)
}
func (drainMech) OnTBFinished(fw *Framework, smID int) {
	if fw.SMResident(smID) == 0 {
		fw.PreemptionDone(smID)
	}
}

// csMech is a copy of the context-switch mechanism.
type csMech struct{}

func (csMech) Name() string { return "cs" }
func (csMech) Preempt(fw *Framework, smID int) {
	kid := fw.SMKernel(smID)
	fw.Engine().AfterFunc(fw.Config().PipelineDrainLatency, func(any, int64) {
		tbs := fw.CancelResident(smID)
		if len(tbs) == 0 {
			fw.PreemptionDone(smID)
			return
		}
		dur := fw.SaveContext(smID, kid, tbs)
		fw.MarkSaving(smID, dur)
		fw.Engine().AfterFunc(dur, func(any, int64) {
			fw.PushPreempted(kid, tbs)
			fw.PreemptionDone(smID)
		}, nil, 0)
	}, nil, 0)
}
func (csMech) OnTBFinished(fw *Framework, smID int) {}

func testConfig() gpu.Config {
	cfg := gpu.DefaultConfig()
	cfg.NumSMs = 4
	cfg.SMSetupLatency = sim.Microseconds(1)
	cfg.PipelineDrainLatency = sim.Microseconds(0.5)
	return cfg
}

// testFW builds a framework on a 4-SM machine with zero jitter.
func testFW(t *testing.T, pol Policy, mech Mechanism) (*sim.Engine, *Framework, *gpu.ContextTable) {
	t.Helper()
	eng := sim.NewEngine()
	fw, err := New(eng, testConfig(), pol, mech, Options{}, nil, NewTimeline())
	if err != nil {
		t.Fatal(err)
	}
	return eng, fw, gpu.NewContextTable(32)
}

// kernelOcc returns a spec whose occupancy on the test machine is occ.
func kernelOcc(name string, numTBs int, tbTimeUs float64, occ int) *trace.KernelSpec {
	return &trace.KernelSpec{
		Name:         name,
		NumTBs:       numTBs,
		TBTime:       sim.Microseconds(tbTimeUs),
		RegsPerTB:    65536 / occ,
		ThreadsPerTB: 64,
		Launches:     1,
	}
}

func mustCtx(t *testing.T, tbl *gpu.ContextTable, name string, prio int) *gpu.Context {
	t.Helper()
	ctx, err := tbl.Create(name, prio)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func submit(t *testing.T, fw *Framework, ctx *gpu.Context, spec *trace.KernelSpec) *launchProbe {
	t.Helper()
	probe := &launchProbe{}
	cmd := &LaunchCmd{Ctx: ctx, Spec: spec, OnDone: func(at sim.Time) {
		probe.done = true
		probe.at = at
	}}
	if err := fw.Submit(cmd); err != nil {
		t.Fatal(err)
	}
	probe.cmd = cmd
	return probe
}

type launchProbe struct {
	cmd  *LaunchCmd
	done bool
	at   sim.Time
}

// runAndValidate drives the engine to completion, validating invariants
// after every event.
func runAndValidate(t *testing.T, eng *sim.Engine, fw *Framework) {
	t.Helper()
	for eng.Step() {
		if err := fw.Validate(); err != nil {
			t.Fatalf("invariant violated at %v: %v", eng.Now(), err)
		}
	}
}

func TestSubmitRejectsInvalidCommands(t *testing.T) {
	_, fw, tbl := testFW(t, &scriptPolicy{}, drainMech{})
	ctx := mustCtx(t, tbl, "p", 0)
	if err := fw.Submit(nil); err == nil {
		t.Error("nil command accepted")
	}
	if err := fw.Submit(&LaunchCmd{Ctx: ctx}); err == nil {
		t.Error("command without spec accepted")
	}
	bad := kernelOcc("bad", 4, 1, 1)
	bad.RegsPerTB = 70000 // cannot fit on an SM
	if err := fw.Submit(&LaunchCmd{Ctx: ctx, Spec: bad}); err == nil {
		t.Error("unfittable kernel accepted")
	}
}

func TestSingleKernelRunsToCompletion(t *testing.T) {
	eng, fw, tbl := testFW(t, &scriptPolicy{}, drainMech{})
	ctx := mustCtx(t, tbl, "p", 0)
	// 8 TBs, occupancy 1, 4 SMs => two waves of 10us plus setup.
	probe := submit(t, fw, ctx, kernelOcc("k", 8, 10, 1))
	runAndValidate(t, eng, fw)
	if !probe.done {
		t.Fatal("kernel did not complete")
	}
	want := sim.Microseconds(1) + 2*sim.Microseconds(10)
	if probe.at != want {
		t.Errorf("kernel finished at %v, want %v (setup + 2 waves)", probe.at, want)
	}
	st := fw.Stats()
	if st.TBsIssued != 8 || st.TBsCompleted != 8 {
		t.Errorf("TB counters: issued=%d completed=%d, want 8/8", st.TBsIssued, st.TBsCompleted)
	}
	if st.KernelsFinished != 1 {
		t.Errorf("KernelsFinished = %d", st.KernelsFinished)
	}
}

func TestOccupancyBoundsResidentTBs(t *testing.T) {
	eng, fw, tbl := testFW(t, &scriptPolicy{}, drainMech{})
	ctx := mustCtx(t, tbl, "p", 0)
	// Occupancy 2 on 4 SMs: 12 TBs run in 2 waves of 8 and 4.
	probe := submit(t, fw, ctx, kernelOcc("k", 12, 10, 2))
	// Step past setup and check residency.
	eng.RunUntil(sim.Microseconds(2))
	if err := fw.Validate(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for smID := 0; smID < fw.NumSMs(); smID++ {
		res := fw.SMResident(smID)
		if res > 2 {
			t.Errorf("SM %d has %d resident TBs, occupancy is 2", smID, res)
		}
		total += res
	}
	if total != 8 {
		t.Errorf("total resident = %d, want 8 (4 SMs x occupancy 2)", total)
	}
	runAndValidate(t, eng, fw)
	if !probe.done {
		t.Fatal("kernel did not complete")
	}
}

func TestTwoKernelsShareSMsThroughActiveQueue(t *testing.T) {
	eng, fw, tbl := testFW(t, &scriptPolicy{}, drainMech{})
	ctxA := mustCtx(t, tbl, "a", 0)
	ctxB := mustCtx(t, tbl, "b", 0)
	// A fills 2 SMs only (2 TBs at occupancy 1); B takes the others.
	pa := submit(t, fw, ctxA, kernelOcc("ka", 2, 50, 1))
	pb := submit(t, fw, ctxB, kernelOcc("kb", 2, 50, 1))
	runAndValidate(t, eng, fw)
	if !pa.done || !pb.done {
		t.Fatal("kernels did not complete")
	}
	// Concurrent execution: both finish within one wave (+setup), not two.
	if pb.at > sim.Microseconds(60) {
		t.Errorf("kernel B finished at %v; concurrent execution expected", pb.at)
	}
}

func TestActiveLimitBlocksAdmission(t *testing.T) {
	eng := sim.NewEngine()
	fw, err := New(eng, testConfig(), &scriptPolicy{}, drainMech{}, Options{ActiveLimit: 1}, nil, NewTimeline())
	if err != nil {
		t.Fatal(err)
	}
	tbl := gpu.NewContextTable(32)
	ctxA := mustCtx(t, tbl, "a", 0)
	ctxB := mustCtx(t, tbl, "b", 0)
	pa := submit(t, fw, ctxA, kernelOcc("ka", 4, 10, 1))
	pb := submit(t, fw, ctxB, kernelOcc("kb", 4, 10, 1))
	if got := len(fw.Active()); got != 1 {
		t.Fatalf("active = %d with limit 1", got)
	}
	if fw.PendingHead(ctxB.ID) == nil {
		t.Fatal("kernel B should wait in its command buffer")
	}
	runAndValidate(t, eng, fw)
	if !pa.done || !pb.done {
		t.Fatal("kernels did not complete")
	}
	if pb.at <= pa.at {
		t.Errorf("B (%v) should finish after A (%v): it was admitted only when A finished", pb.at, pa.at)
	}
}

func TestPendingOrderFollowsHeadArrival(t *testing.T) {
	_, fw, tbl := testFW(t, &scriptPolicy{pickPending: func(fw *Framework) int { return -1 }}, drainMech{})
	ctxA := mustCtx(t, tbl, "a", 0)
	ctxB := mustCtx(t, tbl, "b", 0)
	submit(t, fw, ctxA, kernelOcc("a1", 1, 1, 1))
	submit(t, fw, ctxB, kernelOcc("b1", 1, 1, 1))
	submit(t, fw, ctxA, kernelOcc("a2", 1, 1, 1))
	order := fw.PendingContexts()
	if len(order) != 2 || order[0] != ctxA.ID || order[1] != ctxB.ID {
		t.Fatalf("pending order = %v, want [A B]", order)
	}
	if cp := fw.pendq[ctxA.ID]; len(cp.cmds)-cp.head != 2 {
		t.Errorf("pending depth of A = %d, want 2", len(cp.cmds)-cp.head)
	}
	if fw.PendingHead(ctxA.ID).Spec.Name != "a1" {
		t.Errorf("head of A = %s, want a1", fw.PendingHead(ctxA.ID).Spec.Name)
	}
}

func TestDrainPreemption(t *testing.T) {
	pol := &scriptPolicy{}
	eng, fw, tbl := testFW(t, pol, drainMech{})
	ctxA := mustCtx(t, tbl, "a", 0)
	ctxB := mustCtx(t, tbl, "b", 0)
	// A occupies all 4 SMs with long TBs (100us), 8 total.
	pa := submit(t, fw, ctxA, kernelOcc("ka", 8, 100, 1))
	// B arrives; the script reserves SM 0 for it on activation.
	pol.onActivated = func(fw *Framework, k KernelID) {
		if fw.Kernel(k).Spec().Name != "kb" {
			pol.greedyAssign(fw)
			return
		}
		fw.ReserveSM(0, k)
	}
	eng.RunUntil(sim.Microseconds(10))
	pb := submit(t, fw, ctxB, kernelOcc("kb", 1, 5, 1))
	runAndValidate(t, eng, fw)
	if !pa.done || !pb.done {
		t.Fatal("kernels did not complete")
	}
	st := fw.Stats()
	if st.Preemptions != 1 || st.PreemptionsDone != 1 {
		t.Errorf("preemption counters: %d/%d", st.Preemptions, st.PreemptionsDone)
	}
	if st.TBsPreempted != 0 {
		t.Errorf("draining must not preempt thread blocks mid-flight (got %d)", st.TBsPreempted)
	}
	// B had to wait for SM 0's resident TB to finish (~101us) before setup.
	if pb.at < sim.Microseconds(100) {
		t.Errorf("B finished at %v: draining should wait for the resident thread block", pb.at)
	}
}

func TestContextSwitchPreemption(t *testing.T) {
	pol := &scriptPolicy{}
	eng, fw, tbl := testFW(t, pol, csMech{})
	ctxA := mustCtx(t, tbl, "a", 0)
	ctxB := mustCtx(t, tbl, "b", 0)
	pa := submit(t, fw, ctxA, kernelOcc("ka", 8, 100, 1))
	pol.onActivated = func(fw *Framework, k KernelID) {
		if fw.Kernel(k).Spec().Name != "kb" {
			pol.greedyAssign(fw)
			return
		}
		fw.ReserveSM(0, k)
	}
	eng.RunUntil(sim.Microseconds(10))
	pb := submit(t, fw, ctxB, kernelOcc("kb", 1, 5, 1))
	runAndValidate(t, eng, fw)
	if !pa.done || !pb.done {
		t.Fatal("kernels did not complete")
	}
	st := fw.Stats()
	if st.TBsPreempted != 1 {
		t.Fatalf("TBsPreempted = %d, want 1", st.TBsPreempted)
	}
	if st.TBsRestored != 1 {
		t.Fatalf("TBsRestored = %d, want 1: the preempted TB must be reissued", st.TBsRestored)
	}
	if st.ContextSavedBytes == 0 || st.ContextRestored != st.ContextSavedBytes {
		t.Errorf("context bytes: saved=%d restored=%d", st.ContextSavedBytes, st.ContextRestored)
	}
	// B preempts quickly: pipeline drain + save of one TB context, then
	// setup and 5us of execution. Far sooner than the 100us drain bound.
	if pb.at > sim.Microseconds(40) {
		t.Errorf("B finished at %v: context switch should preempt in ~10us", pb.at)
	}
	// All of A's TBs still completed exactly once.
	if st.TBsCompleted != 9 {
		t.Errorf("TBsCompleted = %d, want 9 (8 from A, 1 from B)", st.TBsCompleted)
	}
}

func TestContextSwitchPreservesRemainingTime(t *testing.T) {
	pol := &scriptPolicy{}
	eng, fw, tbl := testFW(t, pol, csMech{})
	ctxA := mustCtx(t, tbl, "a", 0)
	ctxB := mustCtx(t, tbl, "b", 0)
	// One TB of 100us on one SM; 3 SMs stay idle (occupancy 1, 1 TB).
	pa := submit(t, fw, ctxA, kernelOcc("ka", 1, 100, 1))
	pol.onActivated = func(fw *Framework, k KernelID) {
		if fw.Kernel(k).Spec().Name != "kb" {
			pol.greedyAssign(fw)
			return
		}
		fw.ReserveSM(0, k) // preempt A's only SM
	}
	eng.RunUntil(sim.Microseconds(51)) // A has run 50us of its 100us TB
	submit(t, fw, ctxB, kernelOcc("kb", 1, 5, 1))
	pol.onActivated = nil
	runAndValidate(t, eng, fw)
	if !pa.done {
		t.Fatal("A did not complete")
	}
	// A's TB had ~50us left (plus restore+setup); if remaining time were
	// not preserved it would re-run the full 100us. Check it finished
	// well before setup+100us after the preemption point.
	preemptAt := sim.Microseconds(51)
	if pa.at > preemptAt+sim.Microseconds(80) {
		t.Errorf("A finished at %v: preempted TB seems to have restarted from scratch", pa.at)
	}
	if pa.at < preemptAt+sim.Microseconds(50) {
		t.Errorf("A finished at %v: too early, remaining time lost", pa.at)
	}
}

func TestReserveDuringSetupDefersMechanism(t *testing.T) {
	pol := &scriptPolicy{}
	eng, fw, tbl := testFW(t, pol, csMech{})
	ctxA := mustCtx(t, tbl, "a", 0)
	ctxB := mustCtx(t, tbl, "b", 0)
	pol.onActivated = func(fw *Framework, k KernelID) {
		switch fw.Kernel(k).Spec().Name {
		case "ka":
			fw.AssignSM(0, k)
		case "kb":
			// SM 0 is still setting up for A; reserve it anyway.
			fw.ReserveSM(0, k)
		}
	}
	pa := submit(t, fw, ctxA, kernelOcc("ka", 1, 10, 1))
	pb := submit(t, fw, ctxB, kernelOcc("kb", 1, 10, 1))
	if state, _, next := fw.SMState(0); state != SMReserved || !next.Valid() {
		t.Fatalf("SM 0 state = %v", state)
	}
	pol.onActivated = nil
	runAndValidate(t, eng, fw)
	if !pb.done {
		t.Fatal("B did not complete")
	}
	// A lost its SM before issuing anything; the greedy idle handler
	// reassigns it after B finishes.
	if !pa.done {
		t.Fatal("A did not complete")
	}
}

func TestRetargetSM(t *testing.T) {
	pol := &scriptPolicy{}
	eng, fw, tbl := testFW(t, pol, drainMech{})
	ctxA := mustCtx(t, tbl, "a", 0)
	ctxB := mustCtx(t, tbl, "b", 0)
	ctxC := mustCtx(t, tbl, "c", 0)
	submit(t, fw, ctxA, kernelOcc("ka", 8, 50, 1))
	var kb, kc KernelID
	pol.onActivated = func(fw *Framework, k KernelID) {
		switch fw.Kernel(k).Spec().Name {
		case "kb":
			kb = k
			fw.ReserveSM(0, k)
		case "kc":
			kc = k
			fw.RetargetSM(0, kc)
		}
	}
	eng.RunUntil(sim.Microseconds(5))
	pb := submit(t, fw, ctxB, kernelOcc("kb", 1, 5, 1))
	pc := submit(t, fw, ctxC, kernelOcc("kc", 1, 5, 1))
	if _, _, next := fw.SMState(0); next != kc {
		t.Fatalf("SM 0 next = %v, want %v (retargeted)", next, kc)
	}
	_ = kb
	pol.onActivated = nil
	runAndValidate(t, eng, fw)
	if !pb.done || !pc.done {
		t.Fatal("kernels did not complete")
	}
	// C got the preempted SM first.
	if pc.at >= pb.at {
		t.Errorf("C (%v) should beat B (%v) thanks to the retargeted reservation", pc.at, pb.at)
	}
}

func TestPreemptionDoneWithFinishedNextIdlesSM(t *testing.T) {
	pol := &scriptPolicy{}
	eng, fw, tbl := testFW(t, pol, drainMech{})
	ctxA := mustCtx(t, tbl, "a", 0)
	ctxB := mustCtx(t, tbl, "b", 0)
	// A holds all SMs with one long TB each (4 TBs). B (short) reserves
	// SM 3 but B's kernel completes on another SM... that cannot happen
	// while it is waiting; instead make B tiny so the reservation's
	// HasWork turns false by the time draining completes: B reserves two
	// SMs but has only one TB.
	pa := submit(t, fw, ctxA, kernelOcc("ka", 4, 60, 1))
	pol.onActivated = func(fw *Framework, k KernelID) {
		if fw.Kernel(k).Spec().Name != "kb" {
			pol.greedyAssign(fw)
			return
		}
		fw.ReserveSM(0, k)
		fw.ReserveSM(1, k)
	}
	eng.RunUntil(sim.Microseconds(5))
	pb := submit(t, fw, ctxB, kernelOcc("kb", 1, 5, 1))
	pol.onActivated = nil
	runAndValidate(t, eng, fw)
	if !pa.done || !pb.done {
		t.Fatal("kernels did not complete")
	}
	// Only one of the two reserved SMs was used by B; the other went idle
	// and back to A through the idle path. Everything completed, which is
	// the property we care about; also check reservations both resolved.
	st := fw.Stats()
	if st.Preemptions != 2 || st.PreemptionsDone != 2 {
		t.Errorf("preemptions %d/%d, want 2/2", st.Preemptions, st.PreemptionsDone)
	}
}

func TestPTBQIssuesPreemptedFirst(t *testing.T) {
	pol := &scriptPolicy{}
	eng, fw, tbl := testFW(t, pol, csMech{})
	ctxA := mustCtx(t, tbl, "a", 0)
	ctxB := mustCtx(t, tbl, "b", 0)
	// A: 16 TBs of 100us at occupancy 2 => fills 4 SMs with 8 resident,
	// 8 fresh waiting.
	var ka KernelID
	pol.onActivated = func(fw *Framework, k KernelID) {
		switch fw.Kernel(k).Spec().Name {
		case "ka":
			ka = k
			pol.greedyAssign(fw)
		case "kb":
			fw.ReserveSM(0, k)
		}
	}
	specA := kernelOcc("ka", 16, 100, 2)
	pa := submit(t, fw, ctxA, specA)
	eng.RunUntil(sim.Microseconds(10))
	pb := submit(t, fw, ctxB, kernelOcc("kb", 2, 5, 2))
	// Run until the save completes (pipeline drain 0.5us + ~5us of save)
	// but before B finishes and SM 0 returns to A; then check the PTBQ.
	eng.RunUntil(sim.Microseconds(17))
	kA := fw.Kernel(ka)
	if kA == nil {
		t.Fatal("A finished too early")
	}
	if len(kA.ptbq) != 2 {
		t.Fatalf("PTBQ holds %d TBs, want 2 (SM 0's residents)", len(kA.ptbq))
	}
	pol.onActivated = nil
	runAndValidate(t, eng, fw)
	if !pa.done || !pb.done {
		t.Fatal("kernels did not complete")
	}
	st := fw.Stats()
	if st.TBsPreempted != 2 || st.TBsRestored != 2 {
		t.Errorf("preempted/restored = %d/%d, want 2/2", st.TBsPreempted, st.TBsRestored)
	}
	if st.MaxPTBQ != 2 {
		t.Errorf("MaxPTBQ = %d, want 2", st.MaxPTBQ)
	}
	// Conservation: A's 16 TBs and B's 2 TBs all completed exactly once.
	if st.TBsCompleted != 18 {
		t.Errorf("TBsCompleted = %d, want 18", st.TBsCompleted)
	}
}

func TestTimelineRecordsPhases(t *testing.T) {
	pol := &scriptPolicy{}
	eng, fw, tbl := testFW(t, pol, csMech{})
	ctxA := mustCtx(t, tbl, "a", 0)
	ctxB := mustCtx(t, tbl, "b", 0)
	submit(t, fw, ctxA, kernelOcc("ka", 4, 50, 1))
	pol.onActivated = func(fw *Framework, k KernelID) {
		if fw.Kernel(k).Spec().Name == "kb" {
			fw.ReserveSM(0, k)
			return
		}
		pol.greedyAssign(fw)
	}
	eng.RunUntil(sim.Microseconds(5))
	submit(t, fw, ctxB, kernelOcc("kb", 1, 5, 1))
	pol.onActivated = nil
	runAndValidate(t, eng, fw)
	tl := fw.Timeline()
	tl.Finish(eng.Now())
	kinds := map[IntervalKind]int{}
	for _, iv := range tl.Intervals {
		if iv.End <= iv.Start {
			t.Errorf("empty interval %+v", iv)
		}
		kinds[iv.Kind]++
	}
	if kinds[IntervalSetup] == 0 || kinds[IntervalRun] == 0 || kinds[IntervalSave] == 0 {
		t.Errorf("missing interval kinds: %v", kinds)
	}
	if st := fw.Stats(); st.KernelsActivated != 2 || st.KernelsFinished != 2 {
		t.Fatalf("kernels activated %d, finished %d; want 2, 2", st.KernelsActivated, st.KernelsFinished)
	}
	// Each kernel runs, and ka (enqueued first) starts first.
	firstRun := map[string]sim.Time{}
	for _, iv := range tl.Intervals {
		if _, ok := firstRun[iv.Kernel]; !ok && iv.Kind == IntervalRun {
			firstRun[iv.Kernel] = iv.Start
		}
	}
	ka, okA := firstRun["ka"]
	kb, okB := firstRun["kb"]
	if !okA || !okB || kb <= ka {
		t.Errorf("first run intervals: ka %v (%v), kb %v (%v)", ka, okA, kb, okB)
	}
}

func TestKernelHandleGoesStale(t *testing.T) {
	pol := &scriptPolicy{}
	eng, fw, tbl := testFW(t, pol, drainMech{})
	ctx := mustCtx(t, tbl, "a", 0)
	var id KernelID
	pol.onActivated = func(fw *Framework, k KernelID) {
		id = k
		pol.greedyAssign(fw)
	}
	submit(t, fw, ctx, kernelOcc("k", 2, 5, 1))
	if fw.Kernel(id) == nil {
		t.Fatal("live handle resolves to nil")
	}
	runAndValidate(t, eng, fw)
	if fw.Kernel(id) != nil {
		t.Fatal("stale handle still resolves")
	}
	// A new kernel reusing the slot must not alias the old handle.
	pol.onActivated = nil
	submit(t, fw, ctx, kernelOcc("k2", 2, 5, 1))
	if fw.Kernel(id) != nil {
		t.Fatal("stale handle aliases the slot's new occupant")
	}
	runAndValidate(t, eng, fw)
}

func TestSaveAreaAllocatedAndFreed(t *testing.T) {
	mem := gmem.NewManager(1 << 30)
	pol := &scriptPolicy{}
	eng := sim.NewEngine()
	fw, err := New(eng, testConfig(), pol, csMech{}, Options{}, mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	tbl := gpu.NewContextTable(8)
	ctx := mustCtx(t, tbl, "a", 0)
	submit(t, fw, ctx, kernelOcc("k", 4, 5, 1))
	if mem.Used() == 0 {
		t.Fatal("no save area allocated for the active kernel")
	}
	runAndValidate(t, eng, fw)
	if mem.Used() != 0 {
		t.Fatalf("save area leaked: %d bytes still allocated", mem.Used())
	}
}

func TestUtilizationBounded(t *testing.T) {
	pol := &scriptPolicy{}
	eng, fw, tbl := testFW(t, pol, drainMech{})
	ctx := mustCtx(t, tbl, "a", 0)
	submit(t, fw, ctx, kernelOcc("k", 8, 10, 1))
	runAndValidate(t, eng, fw)
	u := fw.Utilization(eng.Now())
	if u <= 0 || u > 1 {
		t.Fatalf("utilization = %v", u)
	}
}

func TestJitterChangesWithSeed(t *testing.T) {
	run := func(seed uint64) sim.Time {
		eng := sim.NewEngine()
		fw, err := New(eng, testConfig(), &scriptPolicy{}, drainMech{},
			Options{Jitter: 0.3, Seed: seed}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		tbl := gpu.NewContextTable(8)
		ctx := mustCtx(t, tbl, "a", 0)
		probe := submit(t, fw, ctx, kernelOcc("k", 16, 10, 1))
		eng.Run()
		if !probe.done {
			t.Fatal("kernel did not complete")
		}
		return probe.at
	}
	if run(1) == run(2) {
		t.Error("different seeds produced identical makespans")
	}
	if run(7) != run(7) {
		t.Error("same seed produced different makespans")
	}
}

func TestTimelineBusyTimeAndPreemptedSpans(t *testing.T) {
	pol := &scriptPolicy{}
	eng, fw, tbl := testFW(t, pol, csMech{})
	ctxA := mustCtx(t, tbl, "a", 0)
	ctxB := mustCtx(t, tbl, "b", 0)
	pol.onActivated = func(fw *Framework, k KernelID) {
		if fw.Kernel(k).Spec().Name == "kb" {
			fw.ReserveSM(0, k)
			return
		}
		pol.greedyAssign(fw)
	}
	submit(t, fw, ctxA, kernelOcc("ka", 4, 50, 1))
	eng.RunUntil(sim.Microseconds(5))
	submit(t, fw, ctxB, kernelOcc("kb", 1, 5, 1))
	pol.onActivated = nil
	runAndValidate(t, eng, fw)
	tl := fw.Timeline()
	tl.Finish(eng.Now())

	busy := map[IntervalKind]sim.Time{}
	saves := map[string]int{}
	for _, iv := range tl.Intervals {
		busy[iv.Kind] += iv.End - iv.Start
		if iv.Kind == IntervalSave {
			saves[iv.Kernel]++
		}
	}
	if busy[IntervalRun] <= 0 {
		t.Error("no run time recorded")
	}
	if busy[IntervalSave] <= 0 {
		t.Error("no save time recorded")
	}
	// The preempted kernel lost its SM once and saved its context once.
	if n := fw.Stats().Preemptions; n != 1 {
		t.Errorf("%d preemptions, want 1", n)
	}
	if saves["ka"] != 1 || len(saves) != 1 {
		t.Errorf("save intervals per kernel = %v, want ka once", saves)
	}
}

func TestNilTimelineIsSafe(t *testing.T) {
	var tl *Timeline
	tl.transition(0, 0, IntervalRun, "k", 1, 0)
	tl.closeOpen(0, 0)
	tl.Finish(0)
}

func TestTLBStatsExposed(t *testing.T) {
	mem := gmem.NewManager(1 << 30)
	pol := &scriptPolicy{}
	eng := sim.NewEngine()
	fw, err := New(eng, testConfig(), pol, csMech{}, Options{}, mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	tbl := gpu.NewContextTable(8)
	ctxA := mustCtx(t, tbl, "a", 0)
	ctxB := mustCtx(t, tbl, "b", 0)
	pol.onActivated = func(fw *Framework, k KernelID) {
		if fw.Kernel(k).Spec().Name == "kb" {
			fw.ReserveSM(0, k)
			return
		}
		pol.greedyAssign(fw)
	}
	submit(t, fw, ctxA, kernelOcc("ka", 4, 50, 1))
	eng.RunUntil(sim.Microseconds(5))
	submit(t, fw, ctxB, kernelOcc("kb", 1, 5, 1))
	pol.onActivated = nil
	runAndValidate(t, eng, fw)
	hits, misses, faults := fw.TLBStats()
	// The context save/restore path walked the save area through the TLB.
	if hits+misses == 0 {
		t.Error("no TLB activity despite context switching")
	}
	if faults != 0 {
		t.Errorf("%d page faults on mapped save areas", faults)
	}
}

func TestFrameworkConstructionErrors(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	if _, err := New(nil, cfg, &scriptPolicy{}, drainMech{}, Options{}, nil, nil); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := New(eng, cfg, nil, drainMech{}, Options{}, nil, nil); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := New(eng, cfg, &scriptPolicy{}, nil, Options{}, nil, nil); err == nil {
		t.Error("nil mechanism accepted")
	}
	bad := cfg
	bad.NumSMs = 0
	if _, err := New(eng, bad, &scriptPolicy{}, drainMech{}, Options{}, nil, nil); err == nil {
		t.Error("invalid config accepted")
	}
	for _, o := range []Options{
		{Jitter: 1.5},
		{Jitter: math.NaN()},
		{ActiveLimit: -1},
		{TimeScale: -1},
		{TimeScale: math.NaN()},
	} {
		if _, err := New(eng, cfg, &scriptPolicy{}, drainMech{}, o, nil, nil); err == nil {
			t.Errorf("options %+v accepted", o)
		}
	}
}

func TestMisuseParanoia(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	_, fw, tbl := testFW(t, &scriptPolicy{pickPending: func(fw *Framework) int { return -1 }}, drainMech{})
	ctx := mustCtx(t, tbl, "a", 0)
	submit(t, fw, ctx, kernelOcc("k", 2, 5, 1)) // stays pending

	mustPanic("AssignSM to stale kernel", func() { fw.AssignSM(0, NoKernel) })
	mustPanic("ReserveSM of idle SM", func() {
		// No kernel is active; fabricate by assigning first.
		fw.ReserveSM(0, NoKernel)
	})
	mustPanic("RetargetSM of non-reserved SM", func() { fw.RetargetSM(0, NoKernel) })
	mustPanic("PreemptionDone on idle SM", func() { fw.PreemptionDone(0) })
	mustPanic("PushPreempted for stale kernel", func() {
		fw.PushPreempted(NoKernel, []PreemptedTB{{Index: 0, Remaining: 1}})
	})
}

func TestKSRAccessors(t *testing.T) {
	pol := &scriptPolicy{}
	eng, fw, tbl := testFW(t, pol, drainMech{})
	ctx := mustCtx(t, tbl, "a", 3)
	var kid KernelID
	pol.onActivated = func(fw *Framework, k KernelID) { kid = k; pol.greedyAssign(fw) }
	submit(t, fw, ctx, kernelOcc("k", 6, 10, 2))
	k := fw.Kernel(kid)
	if k == nil {
		t.Fatal("kernel not active")
	}
	if k.ID() != kid {
		t.Error("ID mismatch")
	}
	if k.Ctx().ID != ctx.ID || k.Priority() != 3 {
		t.Error("context/priority accessors wrong")
	}
	if k.Total() != 6 || k.Spec().Name != "k" {
		t.Error("spec accessors wrong")
	}
	if k.Finished() {
		t.Error("kernel finished before running")
	}
	if got := kid.String(); got == "" || got == "kernel(none)" {
		t.Errorf("KernelID.String() = %q", got)
	}
	if NoKernel.String() != "kernel(none)" {
		t.Errorf("NoKernel.String() = %q", NoKernel.String())
	}
	for eng.Step() {
	}
}

func TestSMStateString(t *testing.T) {
	if SMIdle.String() != "idle" || SMRunning.String() != "running" || SMReserved.String() != "reserved" {
		t.Error("SMState strings wrong")
	}
}

func TestPendingRequeueAfterActivation(t *testing.T) {
	// Context A has two queued commands; when its head activates, the
	// second command takes over the buffer and A re-enters the arrival
	// order behind contexts whose heads arrived earlier.
	admit := false
	pol := &scriptPolicy{}
	pol.pickPending = func(fw *Framework) int {
		if !admit {
			return -1
		}
		ctxs := fw.PendingContexts()
		if len(ctxs) == 0 {
			return -1
		}
		return ctxs[0]
	}
	eng, fw, tbl := testFW(t, pol, drainMech{})
	ctxA := mustCtx(t, tbl, "a", 0)
	ctxB := mustCtx(t, tbl, "b", 0)
	submit(t, fw, ctxA, kernelOcc("a1", 1, 5, 1))
	eng.RunUntil(sim.Microseconds(1))
	submit(t, fw, ctxB, kernelOcc("b1", 1, 5, 1))
	eng.RunUntil(sim.Microseconds(2))
	submit(t, fw, ctxA, kernelOcc("a2", 1, 5, 1))
	// Admit exactly one: A's head (earliest arrival).
	admit = true
	fwPendingBefore := append([]int(nil), fw.PendingContexts()...)
	if len(fwPendingBefore) != 2 || fwPendingBefore[0] != ctxA.ID {
		t.Fatalf("pending before = %v", fwPendingBefore)
	}
	// Trigger activation via a new submission event.
	submit(t, fw, ctxB, kernelOcc("b2", 1, 5, 1))
	// After activating a1 (and possibly more while space remains), run all.
	runAndValidate(t, eng, fw)
	if fw.Stats().KernelsFinished != 4 {
		t.Fatalf("finished %d kernels, want 4", fw.Stats().KernelsFinished)
	}
}

func TestReadAccessors(t *testing.T) {
	pol := &scriptPolicy{}
	eng, fw, tbl := testFW(t, pol, drainMech{})
	if fw.policy == nil || fw.Mechanism() == nil {
		t.Error("Policy/Mechanism accessors broken")
	}
	if fw.ActiveLimit() != fw.NumSMs() {
		t.Errorf("default active limit %d != NumSMs %d", fw.ActiveLimit(), fw.NumSMs())
	}
	ctx := mustCtx(t, tbl, "a", 0)
	var kid KernelID
	pol.onActivated = func(fw *Framework, k KernelID) { kid = k; pol.greedyAssign(fw) }
	submit(t, fw, ctx, kernelOcc("k", 2, 50, 1))
	idle := 0
	for smID := 0; smID < fw.NumSMs(); smID++ {
		if state, _, _ := fw.SMState(smID); state == SMIdle {
			idle++
		}
	}
	if idle != 2 || fw.FirstIdleSM() != 2 {
		t.Errorf("%d idle SMs, first %d; want 2 idle of 4, first SM 2", idle, fw.FirstIdleSM())
	}
	// Setting-up SMs already count as running for the kernel.
	if got := fw.Kernel(kid).RunningSMs; got != 2 {
		t.Errorf("RunningSMs while setting up = %d, want 2", got)
	}
	eng.RunUntil(sim.Microseconds(2))
	for smID := 0; smID < 2; smID++ {
		if state, ksr, _ := fw.SMState(smID); state != SMRunning || ksr != kid {
			t.Errorf("SM %d = %v running %v, want running %v", smID, state, ksr, kid)
		}
	}
	if got := fw.Kernel(kid).RunningSMs; got != 2 {
		t.Errorf("RunningSMs = %d, want 2", got)
	}
	if got := fw.Kernel(kid).Held; got != 2 {
		t.Errorf("Held = %d, want 2", got)
	}
	if fw.SMNext(0).Valid() {
		t.Error("running SM reports a next kernel")
	}
	if fw.Kernel(NoKernel) != nil {
		t.Error("NoKernel resolves to a kernel")
	}
	for eng.Step() {
	}
}

// TestRecyclingKSRsAndCommandBuffers pins the framework's free lists: a
// finished kernel's KSR is reused only after its OnDone has returned, so a
// launch submitted from inside OnDone (as a stream reissues its one command
// record) gets a different KSR; later launches reuse it; and a released
// context's command-buffer queue serves the next context.
func TestRecyclingKSRsAndCommandBuffers(t *testing.T) {
	pol := &scriptPolicy{}
	eng, fw, tbl := testFW(t, pol, drainMech{})
	var ksrs []*KSR
	pol.onActivated = func(fw *Framework, k KernelID) {
		ksrs = append(ksrs, fw.Kernel(k))
		pol.greedyAssign(fw)
	}
	a := mustCtx(t, tbl, "a", 0)
	spec := kernelOcc("k", 2, 5, 1)
	resubmitted := false
	cmd := &LaunchCmd{Ctx: a, Spec: spec}
	cmd.OnDone = func(sim.Time) {
		if !resubmitted {
			resubmitted = true
			if err := fw.Submit(cmd); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := fw.Submit(cmd); err != nil {
		t.Fatal(err)
	}
	runAndValidate(t, eng, fw)
	submit(t, fw, a, spec)
	runAndValidate(t, eng, fw)
	if len(ksrs) != 3 {
		t.Fatalf("%d activations, want 3", len(ksrs))
	}
	if ksrs[1] == ksrs[0] {
		t.Error("launch submitted from OnDone got the finishing kernel's KSR")
	}
	if ksrs[2] != ksrs[0] && ksrs[2] != ksrs[1] {
		t.Error("third launch did not reuse a finished KSR")
	}

	cp := fw.pendq[a.ID]
	if err := fw.ReleaseContext(a.ID); err != nil {
		t.Fatal(err)
	}
	b := mustCtx(t, tbl, "b", 0)
	submit(t, fw, b, spec)
	if fw.pendq[b.ID] != cp || fw.pendq[a.ID] != nil || cp.id != b.ID {
		t.Error("released context's command buffer was not reused by the next context")
	}
	runAndValidate(t, eng, fw)
}
