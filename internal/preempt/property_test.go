package preempt

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// chaosPolicy drives random (seeded, deterministic) preempt/issue sequences
// against the real mechanisms, in the style of internal/sim's lockstep
// property tests: it admits kernels FIFO, assigns idle SMs to random active
// kernels, and randomly reserves running SMs for other kernels — far more
// preemption pressure than any real policy generates.
type chaosPolicy struct {
	core.BasePolicy
	r *rng.Source
}

func (p *chaosPolicy) Name() string { return "chaos" }

func (p *chaosPolicy) PickPending(fw *core.Framework) int {
	ctxs := fw.PendingContexts()
	if len(ctxs) == 0 {
		return -1
	}
	return ctxs[0]
}

func (p *chaosPolicy) act(fw *core.Framework) {
	active := fw.Active()
	if len(active) == 0 {
		return
	}
	for {
		smID := fw.FirstIdleSM()
		if smID < 0 {
			break
		}
		var want []core.KernelID
		for _, id := range active {
			if fw.WantsMoreSMs(id) {
				want = append(want, id)
			}
		}
		if len(want) == 0 {
			break
		}
		fw.AssignSM(smID, want[p.r.Intn(len(want))])
	}
	if p.r.Intn(4) == 0 {
		var running []int
		for smID := 0; smID < fw.NumSMs(); smID++ {
			if st, _, _ := fw.SMState(smID); st == core.SMRunning {
				running = append(running, smID)
			}
		}
		if len(running) > 0 {
			smID := running[p.r.Intn(len(running))]
			target := active[p.r.Intn(len(active))]
			if fw.Kernel(target) != nil && fw.SMKernel(smID) != target {
				fw.ReserveSM(smID, target)
			}
		}
	}
}

func (p *chaosPolicy) OnActivated(fw *core.Framework, k core.KernelID) { p.act(fw) }
func (p *chaosPolicy) OnSMIdle(fw *core.Framework, smID int)           { p.act(fw) }

// TestMechanismChaosConservation runs random preempt/issue sequences under
// each of the four mechanisms and asserts the conservation invariants: no
// thread block is lost (every launched block completes exactly once, so
// Done == Total when a kernel finishes — the framework panics otherwise and
// also panics on a non-drained PTBQ), preemptions balance, flushes balance
// restarts, saves balance restores, and the framework invariant checker
// stays green after every event.
func TestMechanismChaosConservation(t *testing.T) {
	mechs := map[string]func() core.Mechanism{
		"drain":          func() core.Mechanism { return Drain{} },
		"context-switch": func() core.Mechanism { return ContextSwitch{} },
		"flush":          func() core.Mechanism { return Flush{} },
		"adaptive":       func() core.Mechanism { return NewAdaptive() },
	}
	cfg := gpu.DefaultConfig()
	cfg.NumSMs = 4
	cfg.SMSetupLatency = sim.Microseconds(1)
	cfg.PipelineDrainLatency = sim.Microseconds(0.5)
	for name, mk := range mechs {
		mk := mk
		t.Run(name, func(t *testing.T) {
			f := func(seed uint64, kernelSel []uint8) bool {
				if len(kernelSel) == 0 {
					return true
				}
				if len(kernelSel) > 10 {
					kernelSel = kernelSel[:10]
				}
				eng := sim.NewEngine()
				pol := &chaosPolicy{r: rng.New(seed)}
				fw, err := core.New(eng, cfg, pol, mk(), core.Options{Jitter: 0.3, Seed: seed}, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				tbl := gpu.NewContextTable(32)
				totalTBs := 0
				finished := 0
				for i, sel := range kernelSel {
					ctx, err := tbl.Create("p", 0)
					if err != nil {
						t.Fatal(err)
					}
					numTBs := int(sel%11) + 1
					tbUs := float64(sel%7)*4 + 1
					totalTBs += numTBs
					spec := &trace.KernelSpec{
						Name: "k", NumTBs: numTBs, TBTime: sim.Microseconds(tbUs),
						RegsPerTB: 16384, ThreadsPerTB: 256,
						// Half the kernels are idempotent, so flush and
						// adaptive exercise both the flush path and the
						// context-switch fallback.
						Idempotent: sel%2 == 0,
					}
					cmd := &core.LaunchCmd{Ctx: ctx, Spec: spec, OnDone: func(at sim.Time) { finished++ }}
					eng.AtFunc(sim.Time(i)*sim.Microseconds(2), func(any, int64) {
						if err := fw.Submit(cmd); err != nil {
							t.Fatal(err)
						}
					}, nil, 0)
				}
				for eng.Step() {
					if err := fw.Validate(); err != nil {
						t.Logf("invariant: %v", err)
						return false
					}
				}
				st := fw.Stats()
				if finished != len(kernelSel) {
					t.Logf("finished %d of %d kernels", finished, len(kernelSel))
					return false
				}
				// No lost thread blocks: every launched block completes
				// exactly once, however many times it was saved or flushed
				// along the way.
				if st.TBsCompleted != totalTBs {
					t.Logf("TBsCompleted = %d, want %d", st.TBsCompleted, totalTBs)
					return false
				}
				if st.TBsPreempted != st.TBsRestored {
					t.Logf("preempted %d != restored %d", st.TBsPreempted, st.TBsRestored)
					return false
				}
				if st.TBsFlushed != st.TBsRestarted {
					t.Logf("flushed %d != restarted %d", st.TBsFlushed, st.TBsRestarted)
					return false
				}
				if st.Preemptions != st.PreemptionsDone {
					t.Logf("preemptions %d != done %d", st.Preemptions, st.PreemptionsDone)
					return false
				}
				if st.PreemptionsDone > 0 && st.PreemptLatency < 0 {
					t.Logf("negative preemption latency %v", st.PreemptLatency)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMechanismChaosDeterminism pins that a full chaotic run under each new
// mechanism is a pure function of its seed (the adaptive estimator included).
func TestMechanismChaosDeterminism(t *testing.T) {
	cfg := gpu.DefaultConfig()
	cfg.NumSMs = 4
	cfg.SMSetupLatency = sim.Microseconds(1)
	cfg.PipelineDrainLatency = sim.Microseconds(0.5)
	for name, mk := range map[string]func() core.Mechanism{
		"flush":    func() core.Mechanism { return Flush{} },
		"adaptive": func() core.Mechanism { return NewAdaptive() },
	} {
		mk := mk
		t.Run(name, func(t *testing.T) {
			run := func(seed uint64) (sim.Time, core.Stats) {
				eng := sim.NewEngine()
				pol := &chaosPolicy{r: rng.New(seed)}
				fw, err := core.New(eng, cfg, pol, mk(), core.Options{Jitter: 0.3, Seed: seed}, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				tbl := gpu.NewContextTable(32)
				for i := 0; i < 6; i++ {
					ctx, _ := tbl.Create("p", 0)
					spec := &trace.KernelSpec{
						Name: "k", NumTBs: 8 + i, TBTime: sim.Microseconds(5),
						RegsPerTB: 16384, ThreadsPerTB: 256, Idempotent: i%2 == 0,
					}
					cmd := &core.LaunchCmd{Ctx: ctx, Spec: spec}
					eng.AtFunc(sim.Time(i)*sim.Microseconds(3), func(any, int64) { fw.Submit(cmd) }, nil, 0)
				}
				if err := eng.Run(); err != nil {
					t.Fatal(err)
				}
				return eng.Now(), fw.Stats()
			}
			t1, s1 := run(42)
			t2, s2 := run(42)
			if t1 != t2 || s1 != s2 {
				t.Fatalf("nondeterministic: %v/%v, %+v vs %+v", t1, t2, s1, s2)
			}
		})
	}
}
