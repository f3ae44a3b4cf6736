package policy

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/preempt"
	"repro/internal/sim"
	"repro/internal/trace"
)

func testConfig() gpu.Config {
	cfg := gpu.DefaultConfig()
	cfg.NumSMs = 4
	cfg.SMSetupLatency = sim.Microseconds(1)
	cfg.PipelineDrainLatency = sim.Microseconds(0.5)
	return cfg
}

func newFW(t *testing.T, numSMs int, pol core.Policy, mech core.Mechanism) (*sim.Engine, *core.Framework, *gpu.ContextTable) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := testConfig()
	cfg.NumSMs = numSMs
	fw, err := core.New(eng, cfg, pol, mech, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng, fw, gpu.NewContextTable(64)
}

func spec(name string, numTBs int, tbTimeUs float64, occ int) *trace.KernelSpec {
	return &trace.KernelSpec{
		Name:         name,
		NumTBs:       numTBs,
		TBTime:       sim.Microseconds(tbTimeUs),
		RegsPerTB:    65536 / occ,
		ThreadsPerTB: 64,
	}
}

type probe struct {
	done bool
	at   sim.Time
}

func launch(t *testing.T, fw *core.Framework, ctx *gpu.Context, sp *trace.KernelSpec) *probe {
	t.Helper()
	p := &probe{}
	err := fw.Submit(&core.LaunchCmd{Ctx: ctx, Spec: sp, OnDone: func(at sim.Time) {
		p.done = true
		p.at = at
	}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func ctxOf(t *testing.T, tbl *gpu.ContextTable, name string, prio int) *gpu.Context {
	t.Helper()
	c, err := tbl.Create(name, prio)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func runChecked(t *testing.T, eng *sim.Engine, fw *core.Framework) {
	t.Helper()
	for eng.Step() {
		if err := fw.Validate(); err != nil {
			t.Fatalf("invariant violated at %v: %v", eng.Now(), err)
		}
	}
}

// --- FCFS ---------------------------------------------------------------

func TestFCFSServesArrivalOrderAcrossContexts(t *testing.T) {
	eng, fw, tbl := newFW(t, 4, NewFCFS(), preempt.Drain{})
	a := ctxOf(t, tbl, "a", 0)
	b := ctxOf(t, tbl, "b", 0)
	pa := launch(t, fw, a, spec("ka", 8, 10, 1))
	pb := launch(t, fw, b, spec("kb", 8, 10, 1))
	runChecked(t, eng, fw)
	if !pa.done || !pb.done {
		t.Fatal("kernels did not finish")
	}
	if pb.at <= pa.at {
		t.Errorf("FCFS must serialize contexts: B at %v, A at %v", pb.at, pa.at)
	}
}

func TestFCFSBackToBackWithinContext(t *testing.T) {
	eng, fw, tbl := newFW(t, 4, NewFCFS(), preempt.Drain{})
	a := ctxOf(t, tbl, "a", 0)
	// Two kernels from the same context: the second can take SMs while
	// the first drains (back-to-back, §2.3). First kernel: 5 TBs on 4 SMs,
	// so its last TB holds one SM for a second wave while 3 SMs free up.
	pa1 := launch(t, fw, a, spec("k1", 5, 10, 1))
	pa2 := launch(t, fw, a, spec("k2", 3, 10, 1))
	runChecked(t, eng, fw)
	if !pa1.done || !pa2.done {
		t.Fatal("kernels did not finish")
	}
	// k2 overlaps k1's second wave: it must finish at roughly the same
	// time as k1, not a full wave later.
	if pa2.at > pa1.at+sim.Microseconds(5) {
		t.Errorf("no back-to-back execution: k1 at %v, k2 at %v", pa1.at, pa2.at)
	}
}

func TestFCFSBlocksOtherContextUntilOwnerDone(t *testing.T) {
	eng, fw, tbl := newFW(t, 4, NewFCFS(), preempt.Drain{})
	a := ctxOf(t, tbl, "a", 0)
	b := ctxOf(t, tbl, "b", 0)
	// A's kernel leaves 3 SMs free; B still must wait (different context).
	pa := launch(t, fw, a, spec("ka", 1, 50, 1))
	pb := launch(t, fw, b, spec("kb", 1, 10, 1))
	runChecked(t, eng, fw)
	if pb.at < pa.at {
		t.Errorf("kernel from other context ran on engine owned by A: A=%v B=%v", pa.at, pb.at)
	}
}

// --- NPQ ----------------------------------------------------------------

func TestNPQPrefersPriorityWithoutPreempting(t *testing.T) {
	eng, fw, tbl := newFW(t, 4, NewNPQ(), preempt.Drain{})
	lo1 := ctxOf(t, tbl, "lo1", 0)
	lo2 := ctxOf(t, tbl, "lo2", 0)
	hi := ctxOf(t, tbl, "hi", 5)
	// lo1 occupies everything with long TBs; lo2 and hi queue behind.
	p1 := launch(t, fw, lo1, spec("k1", 4, 100, 1))
	eng.RunUntil(sim.Microseconds(5))
	p2 := launch(t, fw, lo2, spec("k2", 4, 10, 1))
	ph := launch(t, fw, hi, spec("kh", 4, 10, 1))
	runChecked(t, eng, fw)
	if !p1.done || !p2.done || !ph.done {
		t.Fatal("kernels did not finish")
	}
	if fw.Stats().Preemptions != 0 {
		t.Errorf("NPQ preempted %d times", fw.Stats().Preemptions)
	}
	if ph.at >= p2.at {
		t.Errorf("high priority (%v) should be served before low priority (%v)", ph.at, p2.at)
	}
	// But not before the running kernel finished: non-preemptive.
	if ph.at < p1.at {
		t.Errorf("high priority finished before the occupying kernel drained: %v < %v", ph.at, p1.at)
	}
}

// --- PPQ ----------------------------------------------------------------

func TestPPQPreemptsLowerPriority(t *testing.T) {
	eng, fw, tbl := newFW(t, 4, NewPPQ(false), preempt.ContextSwitch{})
	lo := ctxOf(t, tbl, "lo", 0)
	hi := ctxOf(t, tbl, "hi", 5)
	pl := launch(t, fw, lo, spec("kl", 8, 100, 1))
	eng.RunUntil(sim.Microseconds(5))
	ph := launch(t, fw, hi, spec("kh", 4, 10, 1))
	runChecked(t, eng, fw)
	if !pl.done || !ph.done {
		t.Fatal("kernels did not finish")
	}
	if fw.Stats().Preemptions == 0 {
		t.Fatal("PPQ did not preempt")
	}
	// With context switch the high-priority kernel finishes in tens of us,
	// far before the low-priority kernel's 100us thread blocks all drain.
	if ph.at > sim.Microseconds(60) {
		t.Errorf("high-priority kernel finished at %v, expected fast preemptive service", ph.at)
	}
	if pl.at < ph.at {
		t.Error("low-priority kernel should finish last")
	}
}

func TestPPQExclusiveKeepsSMsIdle(t *testing.T) {
	eng, fw, tbl := newFW(t, 4, NewPPQ(false), preempt.ContextSwitch{})
	lo := ctxOf(t, tbl, "lo", 0)
	hi := ctxOf(t, tbl, "hi", 5)
	// hi has only 1 TB: 3 SMs would be free for lo under a shared scheme.
	ph := launch(t, fw, hi, spec("kh", 1, 50, 1))
	pl := launch(t, fw, lo, spec("kl", 1, 10, 1))
	runChecked(t, eng, fw)
	// Exclusive access: lo starts only after hi finishes.
	if pl.at < ph.at {
		t.Errorf("exclusive PPQ scheduled low priority (%v) while high priority was active (%v)", pl.at, ph.at)
	}
}

func TestPPQSharedGrantsLeftoverSMs(t *testing.T) {
	eng, fw, tbl := newFW(t, 4, NewPPQ(true), preempt.ContextSwitch{})
	lo := ctxOf(t, tbl, "lo", 0)
	hi := ctxOf(t, tbl, "hi", 5)
	ph := launch(t, fw, hi, spec("kh", 1, 50, 1))
	pl := launch(t, fw, lo, spec("kl", 1, 10, 1))
	runChecked(t, eng, fw)
	// Shared access: lo runs on the leftover SMs and finishes first.
	if pl.at >= ph.at {
		t.Errorf("shared PPQ did not use leftover SMs: lo at %v, hi at %v", pl.at, ph.at)
	}
}

func TestPPQPreemptsLowestPriorityVictimFirst(t *testing.T) {
	// The shared variant lets both low-priority kernels occupy SMs
	// concurrently, so the victim choice is observable.
	eng, fw, tbl := newFW(t, 4, NewPPQ(true), preempt.ContextSwitch{})
	mid := ctxOf(t, tbl, "mid", 2)
	low := ctxOf(t, tbl, "low", 1)
	hi := ctxOf(t, tbl, "hi", 9)
	// mid holds 2 SMs, low holds 2 SMs.
	pm := launch(t, fw, mid, spec("km", 2, 200, 1))
	pl := launch(t, fw, low, spec("kl", 2, 200, 1))
	eng.RunUntil(sim.Microseconds(5))
	// hi needs exactly 1 SM: the victim must come from "low".
	ph := launch(t, fw, hi, spec("kh", 1, 5, 1))
	eng.RunUntil(sim.Microseconds(6))
	// One of low's SMs must be reserved; none of mid's.
	reservedLow, reservedMid := 0, 0
	for smID := 0; smID < fw.NumSMs(); smID++ {
		state, ksr, _ := fw.SMState(smID)
		if state != core.SMReserved {
			continue
		}
		k := fw.Kernel(ksr)
		if k == nil {
			continue
		}
		switch k.Ctx().ID {
		case low.ID:
			reservedLow++
		case mid.ID:
			reservedMid++
		}
	}
	if reservedLow != 1 || reservedMid != 0 {
		t.Errorf("victims: low=%d mid=%d, want 1/0 (lowest priority first)", reservedLow, reservedMid)
	}
	runChecked(t, eng, fw)
	if !pm.done || !pl.done || !ph.done {
		t.Fatal("kernels did not finish")
	}
}

// --- DSS ----------------------------------------------------------------

// dssHoldings runs n equal-priority long-running kernels under DSS and
// returns how many SMs each holds once the system reaches steady state.
func dssHoldings(t *testing.T, numSMs, n int) []int {
	t.Helper()
	eng, fw, tbl := newFW(t, numSMs, NewDSS(n), preempt.ContextSwitch{})
	for i := 0; i < n; i++ {
		ctx := ctxOf(t, tbl, "p", 0)
		launch(t, fw, ctx, spec("k", 400, 20, 1))
	}
	// Let the partitioning settle (a few preemption rounds).
	eng.RunUntil(sim.Microseconds(500))
	if err := fw.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	for smID := 0; smID < fw.NumSMs(); smID++ {
		state, ksr, next := fw.SMState(smID)
		switch state {
		case core.SMRunning:
			if k := fw.Kernel(ksr); k != nil {
				counts[k.Ctx().ID]++
			}
		case core.SMReserved:
			if k := fw.Kernel(next); k != nil {
				counts[k.Ctx().ID]++
			}
		}
	}
	out := make([]int, 0, len(counts))
	for _, v := range counts {
		out = append(out, v)
	}
	return out
}

func TestDSSEqualPartition(t *testing.T) {
	cases := []struct {
		procs int
		// Expected partition of 13 SMs (paper §4.4: tc = floor(13/N), the
		// remainder to the first arrivals).
		wantMin, wantMax int
	}{
		{2, 6, 7},
		{4, 3, 4},
		{6, 2, 3},
		{8, 1, 2},
	}
	for _, c := range cases {
		holdings := dssHoldings(t, 13, c.procs)
		if len(holdings) != c.procs {
			t.Errorf("%d procs: only %d kernels hold SMs: %v", c.procs, len(holdings), holdings)
			continue
		}
		total := 0
		for _, h := range holdings {
			total += h
			if h < c.wantMin || h > c.wantMax {
				t.Errorf("%d procs: holdings %v, want between %d and %d each",
					c.procs, holdings, c.wantMin, c.wantMax)
				break
			}
		}
		if total != 13 {
			t.Errorf("%d procs: %d SMs assigned in steady state, want 13", c.procs, total)
		}
	}
}

func TestDSSSoloKernelTakesWholeMachineViaDebt(t *testing.T) {
	eng, fw, tbl := newFW(t, 13, NewDSS(4), preempt.ContextSwitch{})
	ctx := ctxOf(t, tbl, "p", 0)
	// Token budget is floor(13/4)+1 = 4, but with idle SMs the kernel must
	// go into debt and occupy all 13.
	p := launch(t, fw, ctx, spec("k", 100, 20, 1))
	eng.RunUntil(sim.Microseconds(50))
	busy := 0
	for smID := 0; smID < fw.NumSMs(); smID++ {
		if state, _, _ := fw.SMState(smID); state != core.SMIdle {
			busy++
		}
	}
	if busy != 13 {
		t.Errorf("solo kernel occupies %d SMs, want all 13 (debt)", busy)
	}
	runChecked(t, eng, fw)
	if !p.done {
		t.Fatal("kernel did not finish")
	}
}

func TestDSSRepartitionsOnArrival(t *testing.T) {
	eng, fw, tbl := newFW(t, 13, NewDSS(2), preempt.ContextSwitch{})
	a := ctxOf(t, tbl, "a", 0)
	b := ctxOf(t, tbl, "b", 0)
	pa := launch(t, fw, a, spec("ka", 200, 20, 1))
	eng.RunUntil(sim.Microseconds(100))
	// A holds all 13 via debt. B arrives: the partition must move to 7/6.
	pb := launch(t, fw, b, spec("kb", 200, 20, 1))
	eng.RunUntil(sim.Microseconds(400))
	counts := map[int]int{}
	for smID := 0; smID < fw.NumSMs(); smID++ {
		state, ksr, next := fw.SMState(smID)
		id := ksr
		if state == core.SMReserved {
			id = next
		}
		if k := fw.Kernel(id); k != nil {
			counts[k.Ctx().ID]++
		}
	}
	if counts[a.ID] < 6 || counts[a.ID] > 7 || counts[b.ID] < 6 || counts[b.ID] > 7 {
		t.Errorf("partition after arrival: A=%d B=%d, want 7/6", counts[a.ID], counts[b.ID])
	}
	if fw.Stats().Preemptions == 0 {
		t.Error("repartitioning requires preemptions")
	}
	runChecked(t, eng, fw)
	if !pa.done || !pb.done {
		t.Fatal("kernels did not finish")
	}
}

// TestDSSTokenConservation checks, after every event, that each active
// kernel's tokens plus the SMs it holds equal its budget: floor(13/n), plus
// one for at most 13 mod n kernels holding a remainder bonus.
func TestDSSTokenConservation(t *testing.T) {
	mechs := []struct {
		name string
		mech core.Mechanism
	}{
		{"drain", preempt.Drain{}},
		{"context-switch", preempt.ContextSwitch{}},
	}
	loads := []struct {
		name    string
		kernels int
		stagger sim.Time
	}{
		{"3-together", 3, 0},
		{"8-staggered", 8, sim.Microseconds(25)},
	}
	const numSMs = 13
	for _, m := range mechs {
		for _, l := range loads {
			t.Run(m.name+"/"+l.name, func(t *testing.T) {
				eng, fw, tbl := newFW(t, numSMs, NewDSS(l.kernels), m.mech)
				probes := make([]*probe, l.kernels)
				for i := range probes {
					ctx := ctxOf(t, tbl, "p", 0)
					eng.AtFunc(sim.Time(i)*l.stagger, func(any, int64) {
						probes[i] = launch(t, fw, ctx, spec("k", 60, 15, 1))
					}, nil, 0)
				}
				base, rem := numSMs/l.kernels, numSMs%l.kernels
				for eng.Step() {
					if err := fw.Validate(); err != nil {
						t.Fatalf("invariants at %v: %v", eng.Now(), err)
					}
					bonus := 0
					for _, id := range fw.Active() {
						k := fw.Kernel(id)
						switch k.Tokens + k.Held {
						case base:
						case base + 1:
							bonus++
						default:
							t.Fatalf("token leak at %v: tokens=%d held=%d (budget %d or %d)",
								eng.Now(), k.Tokens, k.Held, base, base+1)
						}
					}
					if bonus > rem {
						t.Fatalf("%d kernels hold a remainder bonus, at most %d may", bonus, rem)
					}
				}
				for i, p := range probes {
					if p == nil || !p.done {
						t.Fatalf("kernel %d did not finish", i)
					}
				}
				if l.stagger > 0 && fw.Stats().Preemptions == 0 {
					t.Error("staggered arrivals should force repartitioning preemptions")
				}
			})
		}
	}
}

func TestDSSCustomTokenFunc(t *testing.T) {
	pol := NewDSS(2)
	pol.TokenFunc = func(fw *core.Framework, k *core.KSR) int {
		if k.Priority() > 0 {
			return 10
		}
		return 3
	}
	eng, fw, tbl := newFW(t, 13, pol, preempt.ContextSwitch{})
	lo := ctxOf(t, tbl, "lo", 0)
	hi := ctxOf(t, tbl, "hi", 1)
	launch(t, fw, lo, spec("kl", 200, 20, 1))
	eng.RunUntil(sim.Microseconds(100))
	launch(t, fw, hi, spec("kh", 200, 20, 1))
	eng.RunUntil(sim.Microseconds(500))
	counts := map[int]int{}
	for smID := 0; smID < fw.NumSMs(); smID++ {
		state, ksr, next := fw.SMState(smID)
		id := ksr
		if state == core.SMReserved {
			id = next
		}
		if k := fw.Kernel(id); k != nil {
			counts[k.Ctx().ID]++
		}
	}
	if counts[hi.ID] <= counts[lo.ID] {
		t.Errorf("weighted tokens ignored: hi=%d lo=%d", counts[hi.ID], counts[lo.ID])
	}
}

// --- TimeSlice ----------------------------------------------------------

func TestTimeSliceRotatesOwnership(t *testing.T) {
	pol := NewTimeSlice(50 * sim.Microsecond)
	eng, fw, tbl := newFW(t, 4, pol, preempt.ContextSwitch{})
	a := ctxOf(t, tbl, "a", 0)
	b := ctxOf(t, tbl, "b", 0)
	pa := launch(t, fw, a, spec("ka", 40, 20, 1))
	pb := launch(t, fw, b, spec("kb", 40, 20, 1))
	runChecked(t, eng, fw)
	if !pa.done || !pb.done {
		t.Fatal("kernels did not finish")
	}
	if fw.Stats().Preemptions == 0 {
		t.Fatal("time slicing must preempt at quantum boundaries")
	}
	// Interleaved service: completion times within ~45% of each other.
	ratio := float64(pa.at) / float64(pb.at)
	if ratio < 0.55 || ratio > 1.8 {
		t.Errorf("completion times too skewed for round robin: A=%v B=%v", pa.at, pb.at)
	}
}

func TestTimeSliceSingleKernelNoPreemption(t *testing.T) {
	pol := NewTimeSlice(50 * sim.Microsecond)
	eng, fw, tbl := newFW(t, 4, pol, preempt.ContextSwitch{})
	a := ctxOf(t, tbl, "a", 0)
	pa := launch(t, fw, a, spec("ka", 8, 20, 1))
	runChecked(t, eng, fw)
	if !pa.done {
		t.Fatal("kernel did not finish")
	}
	if fw.Stats().Preemptions != 0 {
		t.Errorf("solo kernel was preempted %d times", fw.Stats().Preemptions)
	}
}

// --- Static spatial partitioning -----------------------------------------

func TestStaticPartitionRespectsBoundaries(t *testing.T) {
	eng, fw, tbl := newFW(t, 13, NewStatic(4), preempt.Drain{})
	var ctxs []*gpu.Context
	for i := 0; i < 4; i++ {
		ctx := ctxOf(t, tbl, "p", 0)
		ctxs = append(ctxs, ctx)
		launch(t, fw, ctx, spec("k", 100, 20, 1))
	}
	eng.RunUntil(sim.Microseconds(100))
	if err := fw.Validate(); err != nil {
		t.Fatal(err)
	}
	// Partitions are contiguous: 4+3+3+3. Record which contexts run where.
	owner := make(map[int]int) // sm -> ctx
	for smID := 0; smID < fw.NumSMs(); smID++ {
		state, ksr, _ := fw.SMState(smID)
		if state != core.SMRunning {
			continue
		}
		if k := fw.Kernel(ksr); k != nil {
			owner[smID] = k.Ctx().ID
		}
	}
	counts := map[int]int{}
	for _, ctx := range owner {
		counts[ctx]++
	}
	if len(counts) != 4 {
		t.Fatalf("only %d contexts running: %v", len(counts), counts)
	}
	for ctx, n := range counts {
		if n < 3 || n > 4 {
			t.Errorf("context %d holds %d SMs, want 3-4", ctx, n)
		}
	}
	// Contiguity: each context's SMs form one block.
	for _, ctx := range ctxs {
		var sms []int
		for sm, c := range owner {
			if c == ctx.ID {
				sms = append(sms, sm)
			}
		}
		if len(sms) == 0 {
			continue
		}
		min, max := sms[0], sms[0]
		for _, s := range sms {
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		if max-min+1 != len(sms) {
			t.Errorf("context %d partition not contiguous: %v", ctx.ID, sms)
		}
	}
	for eng.Step() {
	}
}

func TestStaticLeavesOtherPartitionsIdle(t *testing.T) {
	// Only one of two processes submits work: its partition (7 SMs) runs,
	// the other 6 SMs stay idle — the inefficiency DSS removes.
	eng, fw, tbl := newFW(t, 13, NewStatic(2), preempt.Drain{})
	ctx := ctxOf(t, tbl, "p", 0)
	p := launch(t, fw, ctx, spec("k", 100, 20, 1))
	eng.RunUntil(sim.Microseconds(100))
	busy := 0
	for smID := 0; smID < fw.NumSMs(); smID++ {
		if state, _, _ := fw.SMState(smID); state != core.SMIdle {
			busy++
		}
	}
	if busy != 7 {
		t.Errorf("static solo process uses %d SMs, want exactly its 7-SM partition", busy)
	}
	runChecked(t, eng, fw)
	if !p.done {
		t.Fatal("kernel did not finish")
	}
}

func TestStaticNeverPreempts(t *testing.T) {
	eng, fw, tbl := newFW(t, 13, NewStatic(3), preempt.Drain{})
	for i := 0; i < 3; i++ {
		ctx := ctxOf(t, tbl, "p", 0)
		launch(t, fw, ctx, spec("k", 30, 10, 1))
	}
	runChecked(t, eng, fw)
	if fw.Stats().Preemptions != 0 {
		t.Errorf("static partitioning preempted %d times", fw.Stats().Preemptions)
	}
}
