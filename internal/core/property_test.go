package core

import (
	"testing"
	"testing/quick"

	"repro/internal/gpu"
	"repro/internal/rng"
	"repro/internal/sim"
)

// chaosPolicy performs random (but seeded, deterministic) scheduling
// actions: it admits kernels FIFO, assigns idle SMs to random active
// kernels, and randomly reserves running SMs for other kernels. It stresses
// the framework's preemption machinery far beyond what the real policies
// do.
type chaosPolicy struct {
	BasePolicy
	r *rng.Source
}

func (p *chaosPolicy) Name() string { return "chaos" }

func (p *chaosPolicy) PickPending(fw *Framework) int {
	ctxs := fw.PendingContexts()
	if len(ctxs) == 0 {
		return -1
	}
	return ctxs[0]
}

func (p *chaosPolicy) act(fw *Framework) {
	active := fw.Active()
	if len(active) == 0 {
		return
	}
	// Assign all idle SMs to random kernels with work.
	for {
		smID := fw.FirstIdleSM()
		if smID < 0 {
			break
		}
		var want []KernelID
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
	// With probability ~1/4, reserve one random running SM for a random
	// active kernel.
	if p.r.Intn(4) == 0 {
		var running []int
		for smID := 0; smID < fw.NumSMs(); smID++ {
			if st, _, _ := fw.SMState(smID); st == SMRunning {
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

func (p *chaosPolicy) OnActivated(fw *Framework, k KernelID) { p.act(fw) }
func (p *chaosPolicy) OnSMIdle(fw *Framework, smID int)      { p.act(fw) }

// TestChaosConservation runs randomized schedules and checks the core
// conservation properties: every launched thread block completes exactly
// once, every preempted thread block is restored, every preemption
// completes, and the invariant checker never trips.
func TestChaosConservation(t *testing.T) {
	mechs := map[string]Mechanism{"drain": drainMech{}, "cs": csMech{}}
	for name, mech := range mechs {
		mech := mech
		t.Run(name, func(t *testing.T) {
			f := func(seed uint64, kernelSel []uint8) bool {
				if len(kernelSel) == 0 {
					return true
				}
				if len(kernelSel) > 12 {
					kernelSel = kernelSel[:12]
				}
				eng := sim.NewEngine()
				pol := &chaosPolicy{r: rng.New(seed)}
				fw, err := New(eng, testConfig(), pol, mech, Options{Jitter: 0.3, Seed: seed}, nil, nil)
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
					numTBs := int(sel%13) + 1
					occ := []int{1, 2, 4}[int(sel/13)%3]
					tbUs := float64(sel%7)*3 + 1
					totalTBs += numTBs
					spec := kernelOcc("k", numTBs, tbUs, occ)
					// Stagger submissions in time.
					delay := sim.Time(i) * sim.Microseconds(2)
					cmd := &LaunchCmd{Ctx: ctx, Spec: spec, OnDone: func(at sim.Time) { finished++ }}
					eng.AtFunc(delay, func(any, int64) {
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
				if st.TBsCompleted != totalTBs {
					t.Logf("TBsCompleted = %d, want %d", st.TBsCompleted, totalTBs)
					return false
				}
				if st.TBsPreempted != st.TBsRestored {
					t.Logf("preempted %d != restored %d", st.TBsPreempted, st.TBsRestored)
					return false
				}
				if st.Preemptions != st.PreemptionsDone {
					t.Logf("preemptions %d != done %d", st.Preemptions, st.PreemptionsDone)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestChaosDeterminism verifies the whole framework is a pure function of
// its seed under chaotic scheduling.
func TestChaosDeterminism(t *testing.T) {
	run := func(seed uint64) (sim.Time, Stats) {
		eng := sim.NewEngine()
		pol := &chaosPolicy{r: rng.New(seed)}
		fw, err := New(eng, testConfig(), pol, csMech{}, Options{Jitter: 0.3, Seed: seed}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		tbl := gpu.NewContextTable(32)
		for i := 0; i < 6; i++ {
			ctx, _ := tbl.Create("p", 0)
			spec := kernelOcc("k", 8+i, 5, 1+i%2)
			cmd := &LaunchCmd{Ctx: ctx, Spec: spec}
			at := sim.Time(i) * sim.Microseconds(3)
			eng.AtFunc(at, func(any, int64) { fw.Submit(cmd) }, nil, 0)
		}
		eng.Run()
		return eng.Now(), fw.Stats()
	}
	t1, s1 := run(42)
	t2, s2 := run(42)
	if t1 != t2 || s1 != s2 {
		t.Fatalf("nondeterministic: %v/%v, %+v vs %+v", t1, t2, s1, s2)
	}
	t3, _ := run(43)
	if t1 == t3 {
		t.Log("different seeds coincidentally equal (acceptable but unusual)")
	}
}
