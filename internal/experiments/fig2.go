package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/preempt"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Fig2Result reproduces the motivating example of Figure 2: a soft
// real-time kernel (K3, high priority) competing with two long low-priority
// kernels (K1, K2) under FCFS, non-preemptive priority, and preemptive
// priority scheduling.
type Fig2Result struct {
	// Turnaround of the high-priority process per scheduler.
	FCFS, NPQ, PPQ sim.Time
}

// Table renders the comparison.
func (r *Fig2Result) Table() *Table {
	t := &Table{
		Title:  "Figure 2: turnaround of the soft real-time process K3",
		Header: []string{"scheduler", "K3 turnaround", "vs FCFS"},
	}
	add := func(name string, v sim.Time) {
		t.Rows = append(t.Rows, []string{name, v.String(), fmt.Sprintf("%.2fx", float64(r.FCFS)/float64(v))})
	}
	add("FCFS (current GPUs)", r.FCFS)
	add("Nonpreemptive priority (NPQ)", r.NPQ)
	add("Preemptive priority (PPQ)", r.PPQ)
	return t
}

// fig2App builds a single-kernel app: an optional CPU delay then one launch.
func fig2App(name string, delay sim.Time, tbs int, tbTime sim.Time, regs int) *trace.App {
	app := &trace.App{
		Name: name,
		Kernels: []trace.KernelSpec{{
			Name:         name + ".kernel",
			NumTBs:       tbs,
			TBTime:       tbTime,
			RegsPerTB:    regs,
			ThreadsPerTB: 256,
			Launches:     1,
		}},
		Class1: trace.ClassMedium,
		Class2: trace.ClassMedium,
	}
	if delay > 0 {
		app.Ops = append(app.Ops, trace.Op{Kind: trace.OpCPU, Dur: delay})
	}
	app.Ops = append(app.Ops, trace.Op{Kind: trace.OpLaunch, Kernel: 0})
	return app
}

// RunFig2 simulates the Figure 2 scenario under the three schedulers. The
// three simulations are independent, so they run concurrently on the shared
// runner, honoring o.Workers and o.Context; the other options do not apply
// to this fixed scenario.
func RunFig2(seed uint64, o Options) (*Fig2Result, error) {
	// K1 and K2: long kernels that together occupy the machine for a long
	// time (occupancy 1 via heavy register use). K3: a short high-priority
	// kernel launched while K1 runs.
	k1 := fig2App("K1", 0, 26, 400*sim.Microsecond, 40000)
	k2 := fig2App("K2", 5*sim.Microsecond, 26, 400*sim.Microsecond, 40000)
	k3 := fig2App("K3", 100*sim.Microsecond, 13, 30*sim.Microsecond, 4000)

	spec := workload.Spec{
		Name:         "fig2",
		Apps:         []*trace.App{k1, k2, k3},
		HighPriority: 2,
		Seed:         seed,
	}
	type sched struct {
		pol  func(n int) core.Policy
		mech func() core.Mechanism
	}
	scheds := []sched{
		{func(n int) core.Policy { return policy.NewFCFS() }, nil},
		{func(n int) core.Policy { return policy.NewNPQ() }, nil},
		{func(n int) core.Policy { return policy.NewPPQ(false) },
			func() core.Mechanism { return preempt.ContextSwitch{} }},
	}
	times, err := mapCells(o, len(scheds), func(i int) (sim.Time, error) {
		rc := workload.RunConfig{
			Sys:       systemConfigForFig2(seed),
			Policy:    scheds[i].pol,
			Mechanism: scheds[i].mech,
			MinRuns:   1,
		}
		res, err := workload.Run(spec, rc)
		if err != nil {
			return 0, err
		}
		if !res.Completed {
			return 0, fmt.Errorf("experiments: fig2 scenario did not complete")
		}
		return res.Apps[2].MeanTurnaround, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	return &Fig2Result{FCFS: times[0], NPQ: times[1], PPQ: times[2]}, nil
}

func systemConfigForFig2(seed uint64) system.Config {
	cfg := system.DefaultConfig()
	cfg.Seed = seed
	cfg.Jitter = 0 // deterministic timeline for the illustration
	cfg.PCIe.Priority = true
	return cfg
}
