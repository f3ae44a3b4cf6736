package arrivals

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pcie"
	"repro/internal/policy"
	"repro/internal/preempt"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"
)

// machineView is everything a run leaves observable on its machine: the
// report, the per-SM timeline (which names launch and context ids), and the
// counters of every component.
type machineView struct {
	Res       *Result
	Timeline  *core.Timeline
	DMA       pcie.Stats
	CPU       [2]uint64
	CPUBusy   sim.Time
	Contexts  int
	Processed uint64
}

func viewOf(sys *system.System, res *Result) machineView {
	return machineView{
		Res:       res,
		Timeline:  sys.Exec.Timeline(),
		DMA:       sys.DMA.Stats(),
		CPU:       [2]uint64{sys.CPU.Dispatched, sys.CPU.Queued},
		CPUBusy:   sys.CPU.BusyTime,
		Contexts:  sys.Contexts.Len(),
		Processed: sys.Eng.Processed(),
	}
}

// streamOn prepares stream tr on machine sys, admitting through adm (nil =
// a new desk), without running it.
func streamOn(sys *system.System, adm *Admitter, tr *trace.ArrivalTrace) *engine {
	e := &engine{sys: sys, tr: tr, acct: metrics.NewSLOAccount(tr.Classes)}
	if adm == nil {
		adm = NewAdmitter(sys, tr, new(proc.PhaseTables).Build(tr.Apps), e.requestDone)
	}
	adm.tr, adm.onRun = tr, e.requestDone
	e.adm = adm
	return e
}

// TestResetMachineMatchesFresh is the differential check behind
// per-incarnation recycling: a machine killed mid-flight and reset in place
// must run the next stream exactly as a freshly built machine does — same
// report, same timeline (launch and context ids included), same component
// counters. Each case covers one preemption mechanism on the default HBM and
// on one too small for a single context's saved state: a single machine
// charges context save and restore as bytes over bandwidth without
// allocating HBM for it, so both sizes must reset alike.
func TestResetMachineMatchesFresh(t *testing.T) {
	first, err := Generate(testSpec(ProcPoisson, 40000, 21))
	if err != nil {
		t.Fatal(err)
	}
	second, err := Generate(testSpec(ProcBursty, 30000, 22))
	if err != nil {
		t.Fatal(err)
	}
	mechs := []struct {
		name string
		mk   func() core.Mechanism
	}{
		{"context-switch", func() core.Mechanism { return preempt.ContextSwitch{} }},
		{"drain", func() core.Mechanism { return preempt.Drain{} }},
		{"flush", func() core.Mechanism { return preempt.Flush{} }},
		{"adaptive", func() core.Mechanism { return preempt.NewAdaptive() }},
	}
	for _, m := range mechs {
		for _, hbm := range []struct {
			name string
			size int64
		}{{"ample-hbm", 0}, {"no-save-areas", 64 << 10}} {
			t.Run(fmt.Sprintf("%s/%s", m.name, hbm.name), func(t *testing.T) {
				cfg := system.DefaultConfig()
				cfg.RecordTimeline = true
				cfg.ContextCapacity = len(first.Arrivals) + len(second.Arrivals)
				if hbm.size > 0 {
					cfg.GPU.MemSize = hbm.size
				}
				pol := func() core.Policy { return policy.NewPPQ(true) }
				rc := RunConfig{MaxSimTime: 120 * sim.Second}

				// The killed machine: a different seed and time scale, the
				// first stream cut off with requests in flight.
				dead := cfg
				dead.Seed, dead.TimeScale = 5, 1.5
				sys, err := system.New(dead, pol(), m.mk())
				if err != nil {
					t.Fatal(err)
				}
				e := streamOn(sys, nil, first)
				sys.Eng.AtFunc(first.Arrivals[0].At, injectEvent, e, 0)
				if err := sys.Eng.RunUntil(2 * sim.Millisecond); err != nil {
					t.Fatal(err)
				}
				if sys.Contexts.Len() == 0 || sys.Eng.Pending() == 0 {
					t.Fatalf("nothing in flight at the reset: %d contexts, %d events",
						sys.Contexts.Len(), sys.Eng.Pending())
				}

				cfg.Seed = 9
				if err := sys.Reset(cfg, pol(), m.mk()); err != nil {
					t.Fatal(err)
				}
				if sys.Cfg.GPU.MemSize != cfg.GPU.MemSize {
					t.Fatalf("reset machine has %d bytes of HBM, want %d",
						sys.Cfg.GPU.MemSize, cfg.GPU.MemSize)
				}
				e.adm.Reset()
				res, err := streamOn(sys, e.adm, second).run(rc)
				if err != nil {
					t.Fatal(err)
				}
				got := viewOf(sys, res)

				fresh, err := system.New(cfg, pol(), m.mk())
				if err != nil {
					t.Fatal(err)
				}
				res, err = streamOn(fresh, nil, second).run(rc)
				if err != nil {
					t.Fatal(err)
				}
				want := viewOf(fresh, res)
				if res.Completed != len(second.Arrivals) {
					t.Fatalf("fresh machine completed %d of %d", res.Completed, len(second.Arrivals))
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("reset machine diverges from a fresh one:\n got  %+v\n want %+v", got, want)
				}
			})
		}
	}
}
