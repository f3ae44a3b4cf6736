package arrivals

import (
	"testing"

	"repro/internal/gpu"
	"repro/internal/policy"
	"repro/internal/preempt"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"
)

// recycleTrace is a one-app stream whose request touches every recycled
// record: a CPU phase, transfers both ways and two kernels on two streams.
func recycleTrace(n int) *trace.ArrivalTrace {
	app := &trace.App{
		Name: "req",
		Kernels: []trace.KernelSpec{{
			Name: "k", NumTBs: 20, TBTime: sim.Microseconds(5),
			RegsPerTB: 4000, ThreadsPerTB: 128,
		}},
		Ops: []trace.Op{
			{Kind: trace.OpH2D, Bytes: 64 * 1024},
			{Kind: trace.OpCPU, Dur: sim.Microseconds(3)},
			{Kind: trace.OpLaunch, Kernel: 0},
			{Kind: trace.OpLaunch, Kernel: 0, Stream: 1},
			{Kind: trace.OpSync},
			{Kind: trace.OpD2H, Bytes: 16 * 1024},
		},
		Class1: trace.ClassShort,
		Class2: trace.ClassShort,
	}
	tr := &trace.ArrivalTrace{
		Apps:    []*trace.App{app},
		Classes: []trace.ArrivalClass{{Name: "rt", Priority: 1}},
	}
	for i := 0; i < n; i++ {
		tr.Arrivals = append(tr.Arrivals, trace.Arrival{At: sim.Time(i) * sim.Microsecond})
	}
	return tr
}

func recycleSystem(t *testing.T) *system.System {
	t.Helper()
	cfg := system.DefaultConfig()
	cfg.Seed = 3
	sys, err := system.New(cfg, policy.NewPPQ(true), preempt.ContextSwitch{})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestAdmitterSteadyStateAllocs pins the recycling: once a machine has
// served a request, admitting and completing the next one reuses its
// context, page table, process, streams, command records, command-buffer
// queue and KSRs instead of allocating new ones.
func TestAdmitterSteadyStateAllocs(t *testing.T) {
	tr := recycleTrace(1)
	sys := recycleSystem(t)
	done := 0
	ad := NewAdmitter(sys, tr, new(proc.PhaseTables).Build(tr.Apps), func(int, proc.RunRecord) { done++ })
	serve := func() {
		if err := ad.Admit(0, 0); err != nil {
			t.Fatal(err)
		}
		if err := sys.Eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		serve()
	}
	if a := testing.AllocsPerRun(50, serve); a > 1 {
		t.Errorf("admitting and completing one request allocates %v times, want <= 1", a)
	}
	if done != 3+51 || sys.Contexts.Len() != 0 {
		t.Errorf("%d requests completed, %d contexts live; want 54, 0", done, sys.Contexts.Len())
	}
}

// TestAdmitterRecyclesOnlyAfterCallback pins the two recycling invariants on
// a completion that synchronously admits the next request (as a cluster
// node's memory release does for an HBM-queued request): the new request
// gets a different context struct than the one still completing, and every
// context id is fresh even when its struct is reused.
func TestAdmitterRecyclesOnlyAfterCallback(t *testing.T) {
	tr := recycleTrace(3)
	sys := recycleSystem(t)
	var adm *Admitter
	var ctxs []*gpu.Context
	var ids, asids []int
	admit := func(i int) {
		if err := adm.Admit(i, i); err != nil {
			t.Fatal(err)
		}
		c := sys.Contexts.Lookup(i)
		ctxs = append(ctxs, c)
		ids, asids = append(ids, c.ID), append(asids, c.PageTable.ASID)
	}
	adm = NewAdmitter(sys, tr, new(proc.PhaseTables).Build(tr.Apps), func(id int, _ proc.RunRecord) {
		if id == 0 {
			admit(1)
		}
	})
	admit(0)
	if err := sys.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	admit(2)
	if err := sys.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if ctxs[1] == ctxs[0] {
		t.Fatal("request admitted from a completion callback got the completing request's context")
	}
	if ctxs[2] != ctxs[0] && ctxs[2] != ctxs[1] {
		t.Error("third request did not reuse a retired context")
	}
	for i := range ctxs {
		if ids[i] != i || asids[i] != i {
			t.Errorf("request %d: context id %d, asid %d; want fresh id %d", i, ids[i], asids[i], i)
		}
	}
}
