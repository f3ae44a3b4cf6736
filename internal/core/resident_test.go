package core

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/gpu"
	"repro/internal/rng"
	"repro/internal/sim"
)

// TestJitterFactorMatchesHash64 activates kernels under many seeds and
// jitter fractions (0 and negative included) and requires every thread
// block's factor, drawn from the state cached on its KSR, to equal
// rng.Jitter over the one-shot rng.Hash64(seed, launch, index) exactly.
func TestJitterFactorMatchesHash64(t *testing.T) {
	src := rng.New(26)
	spec := kernelOcc("k", 1<<20, 10, 1)
	for trial := 0; trial < 200; trial++ {
		frac := []float64{0, -0.5, 0.3, 0.05, 0.999, src.Float64()}[trial%6]
		seed := src.Uint64()
		if trial%10 == 0 {
			seed = 0
		}
		fw, err := New(sim.NewEngine(), testConfig(), &scriptPolicy{onActivated: func(*Framework, KernelID) {}},
			drainMech{}, Options{Jitter: frac, Seed: seed}, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Skip a random number of launch ids so launches are not all 1.
		fw.launchSeq = src.Uint64() >> 1
		ctx := mustCtx(t, gpu.NewContextTable(4), "a", 0)
		probe := submit(t, fw, ctx, spec)
		k := fw.Kernel(fw.Active()[0])
		for i := 0; i < 50; i++ {
			idx := src.Intn(spec.NumTBs)
			got := fw.jitterFactor(k, idx)
			want := rng.Jitter(frac, rng.Hash64(seed, probe.cmd.Launch, uint64(idx)))
			if got != want {
				t.Fatalf("frac %g seed %#x launch %d tb %d: factor %v, Hash64 definition %v",
					frac, seed, probe.cmd.Launch, idx, got, want)
			}
		}
	}
}

// orderMech preempts synchronously, through CancelResident (then pushing the
// handles to the PTBQ) or FlushResident, so a test sees the SM's resident
// set exactly as it stood at the reservation.
type orderMech struct{ flush bool }

func (orderMech) Name() string { return "order" }
func (m orderMech) Preempt(fw *Framework, smID int) {
	if m.flush {
		fw.FlushResident(smID)
	} else {
		fw.PushPreempted(fw.SMKernel(smID), fw.CancelResident(smID))
	}
	fw.PreemptionDone(smID)
}
func (orderMech) OnTBFinished(*Framework, int) {}

// bySeq returns the indices of the SM's resident thread blocks in issue
// order, sorting a copy of the set.
func bySeq(s *sm) []int {
	r := append([]residentTB(nil), s.resident...)
	sort.Slice(r, func(i, j int) bool { return r[i].seq < r[j].seq })
	out := make([]int, len(r))
	for i, tb := range r {
		out[i] = int(tb.index)
	}
	return out
}

// stepUntilShuffled runs the engine until completions have left the SM's
// resident set out of issue order, so a reader that forgot to sort would
// see a different order.
func stepUntilShuffled(t *testing.T, eng *sim.Engine, s *sm) {
	t.Helper()
	for {
		for i := 1; i < len(s.resident); i++ {
			if s.resident[i-1].seq > s.resident[i].seq {
				return
			}
		}
		if !eng.Step() {
			t.Fatal("run ended before a completion reordered the resident set")
		}
	}
}

// TestPreemptionKeepsIssueOrder completes thread blocks out of issue order
// (jittered durations on one SM, whose resident set is swap-deleted), then
// requires CancelResident, FlushResident and ResidentTBs to list the
// residents in issue order, and the PTBQ to re-issue them in that order.
func TestPreemptionKeepsIssueOrder(t *testing.T) {
	for _, flush := range []bool{false, true} {
		name := "cancel"
		if flush {
			name = "flush"
		}
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			cfg.NumSMs = 1
			eng := sim.NewEngine()
			fw, err := New(eng, cfg, &scriptPolicy{}, orderMech{flush: flush},
				Options{Jitter: 0.3, Seed: 5, ActiveLimit: 2}, nil)
			if err != nil {
				t.Fatal(err)
			}
			tbl := gpu.NewContextTable(8)
			specA := kernelOcc("ka", 96, 10, 8)
			specA.Idempotent = true
			pa := submit(t, fw, mustCtx(t, tbl, "a", 0), specA)
			pb := submit(t, fw, mustCtx(t, tbl, "b", 0), kernelOcc("kb", 1, 1, 1))
			ka, kb := fw.Active()[0], fw.Active()[1]
			s := fw.sms[0]

			stepUntilShuffled(t, eng, s)
			want := bySeq(s)
			fw.ReserveSM(0, kb)
			var got []int
			for _, tb := range fw.CanceledTBs(0) {
				got = append(got, tb.Index)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("preempted in order %v, issue order %v", got, want)
			}
			got = got[:0]
			for _, tb := range fw.Kernel(ka).queued() {
				got = append(got, tb.Index)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("PTBQ holds %v, issue order %v", got, want)
			}

			// B runs its one thread block, the SM returns to A, and setup
			// issues the PTBQ ahead of fresh thread blocks.
			for !(s.ksr == ka && !s.settingUp && len(s.resident) > 0) {
				if !eng.Step() {
					t.Fatal("run ended before the SM returned to A")
				}
			}
			if reissued := bySeq(s); !slices.Equal(reissued[:len(want)], want) {
				t.Fatalf("re-issued in order %v, PTBQ order %v", reissued, want)
			}
			// The drained PTBQ keeps its capacity for the next preemption.
			if k := fw.Kernel(ka); len(k.queued()) != 0 || cap(k.ptbq) < len(want) {
				t.Fatalf("drained PTBQ holds %d entries with capacity %d, want 0 and >= %d",
					len(k.queued()), cap(k.ptbq), len(want))
			}

			stepUntilShuffled(t, eng, s)
			want = bySeq(s)
			got = got[:0]
			for _, tb := range fw.ResidentTBs(0) {
				got = append(got, tb.Index)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("ResidentTBs lists %v, issue order %v", got, want)
			}

			runAndValidate(t, eng, fw)
			if !pa.done || !pb.done {
				t.Fatal("kernels did not complete")
			}
		})
	}
}
