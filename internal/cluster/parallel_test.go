package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/preempt"
	"repro/internal/sim"
)

// sameRun deep-compares a windowed run's Result with its lockstep reference.
// Every field must match except Executor, which names the loop that ran and
// so differs by design when the windowed run engaged.
func sameRun(ref, par *Result) bool {
	p := *par
	p.Executor = ref.Executor
	return reflect.DeepEqual(ref, &p)
}

// TestParallelWindowMatchesLockstep is the property the whole parallel-in-
// time design rests on: a windowed run is byte-identical to the lockstep
// reference at any worker count. It sweeps the chaos grid — every dispatch
// policy, all four preemption mechanisms, kill rates from none through
// aggressive with stragglers on alternating trials, behind an active
// autoscaler — and deep-compares the full Result (counters, per-node
// lifecycles, latency sketches, control-plane tallies) between Parallel = 0
// and a rotating worker count. Run under -race in CI, this doubles as the
// data-race proof for the window fan-out.
func TestParallelWindowMatchesLockstep(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos-grid equivalence sweep in -short mode")
	}
	mechs := []struct {
		name string
		mk   func() core.Mechanism
	}{
		{"drain", func() core.Mechanism { return preempt.Drain{} }},
		{"context-switch", func() core.Mechanism { return preempt.ContextSwitch{} }},
		{"flush", func() core.Mechanism { return preempt.Flush{} }},
		{"adaptive", func() core.Mechanism { return preempt.NewAdaptive() }},
	}
	killRates := []float64{0, 1500, 6000}
	workerCounts := []int{1, 4, 8}

	tr := testTrace(t, 40000, 202)

	trial := 0
	for ki, kind := range Kinds() {
		for _, mech := range mechs {
			for _, killRate := range killRates {
				faults := &FaultSpec{KillRate: killRate, Downtime: 300 * sim.Microsecond}
				if trial%2 == 1 {
					faults.StragglerFrac = 0.5
					faults.SlowFactor = 3
				}
				mkRC := func(parallel int) RunConfig {
					d, err := NewDispatcher(kind, uint64(ki+1))
					if err != nil {
						t.Fatal(err)
					}
					rc := testRunConfig(3, d)
					rc.Mechanism = mech.mk
					rc.Autoscale = &StepConfig{Min: 3, Max: 5, HighBacklog: 6, LowBacklog: 1}
					rc.Faults = faults
					rc.Parallel = parallel
					return rc
				}

				ref, err := Run(tr, mkRC(0))
				if err != nil {
					t.Fatalf("%s/%s/kill=%g: lockstep: %v", kind, mech.name, killRate, err)
				}
				workers := workerCounts[trial%len(workerCounts)]
				par, err := Run(tr, mkRC(workers))
				if err != nil {
					t.Fatalf("%s/%s/kill=%g: parallel(%d): %v", kind, mech.name, killRate, workers, err)
				}
				if !sameRun(ref, par) {
					t.Errorf("%s/%s/kill=%g: parallel(%d) diverged from lockstep: admitted %d/%d completed %d/%d end %v/%v",
						kind, mech.name, killRate, workers,
						ref.Admitted, par.Admitted, ref.Completed, par.Completed, ref.EndTime, par.EndTime)
				}
				trial++
			}
		}
	}
}

// TestLookaheadEngages pins the latency-floor wiring: every built-in
// dispatcher runs the parallel-window executor — each load-aware one by
// declaring merge-reconstructible window reads, load-oblivious round-robin
// as the empty read set. The safe lookahead must equal the PCIe dispatch
// floor minimized across the fleet, including the autoscaler's add-node
// config.
func TestLookaheadEngages(t *testing.T) {
	tr := testTrace(t, 40000, 63)
	for ki, kind := range Kinds() {
		d, err := NewDispatcher(kind, uint64(ki+1))
		if err != nil {
			t.Fatal(err)
		}
		rc := testRunConfig(3, d)
		rc.Parallel = 2
		c, err := New(tr, rc)
		if err != nil {
			t.Fatal(err)
		}
		if c.Executor() != ExecutorParallelWindow {
			t.Errorf("%s: executor %q with Parallel set, want %q", kind, c.Executor(), ExecutorParallelWindow)
		}
		want := rc.Sys.PCIe.DispatchFloor()
		if want <= 0 {
			t.Fatal("default PCIe config has no dispatch floor; the lookahead is untestable")
		}
		if c.floorMin != want {
			t.Errorf("%s: fleet floor %v, want the PCIe dispatch floor %v", kind, c.floorMin, want)
		}
		_, oblivious := any(d).(LoadOblivious)
		la, aware := any(d).(Lookahead)
		if !oblivious && !aware {
			t.Errorf("%s: load-aware dispatcher declares no lookahead reads; it windows at every arrival", kind)
		}
		if aware && !lookaheadReadsSafe(la.LookaheadReads()) {
			t.Errorf("%s: LookaheadReads %v not within the merge-reconstructible set", kind, la.LookaheadReads())
		}
	}

	// The lockstep reference never reports the parallel-window executor.
	c, err := New(tr, testRunConfig(3, NewJSQ()))
	if err != nil {
		t.Fatal(err)
	}
	if c.Executor() != ExecutorLockstep {
		t.Errorf("lockstep cluster reports executor %q", c.Executor())
	}
}

// TestLookaheadMemoryPressureMatchesLockstep drives the lookahead executor
// through the memory ledger's hardest regime: a heterogeneous scarce-HBM
// fleet where placements block (or swap) on device memory, so the
// merge-replayed memDemand releases feed straight back into
// least-loaded-fits decisions. Both memory-aware and memory-blind dispatch
// must reproduce lockstep byte-for-byte at every committed worker count, in
// both oversubscription disciplines.
func TestLookaheadMemoryPressureMatchesLockstep(t *testing.T) {
	tr := memTrace(t, 60000, 64)
	for _, kind := range []Kind{KindLeastLoaded, KindLeastLoadedFits} {
		for _, swap := range []bool{false, true} {
			mkRC := func(parallel int) RunConfig {
				d, err := NewDispatcher(kind, 9)
				if err != nil {
					t.Fatal(err)
				}
				rc := testRunConfig(0, d)
				rc.NodeTypes = []NodeType{
					{Count: 2, HBMBytes: memTestRoomy},
					{Count: 2, HBMBytes: memTestTight},
				}
				rc.Swap = swap
				rc.Parallel = parallel
				return rc
			}
			ref, err := Run(tr, mkRC(0))
			if err != nil {
				t.Fatalf("%s/swap=%v: lockstep: %v", kind, swap, err)
			}
			if !swap && ref.Spills != 0 {
				t.Fatalf("%s: block mode spilled", kind)
			}
			for _, workers := range []int{1, 4, 8} {
				par, err := Run(tr, mkRC(workers))
				if err != nil {
					t.Fatalf("%s/swap=%v: parallel(%d): %v", kind, swap, workers, err)
				}
				if !sameRun(ref, par) {
					t.Errorf("%s/swap=%v: parallel(%d) diverged from lockstep: completed %d/%d spills %d/%d end %v/%v",
						kind, swap, workers, ref.Completed, par.Completed,
						ref.Spills, par.Spills, ref.EndTime, par.EndTime)
				}
			}
		}
	}
}

// TestParallelLookaheadMatchesLockstep pins the latency-floor lookahead for
// both kinds of dispatcher it serves: load-oblivious round-robin (an empty
// read set) and load-aware jsq — including the final window, where the
// exact-stop logic must reproduce lockstep's done()-before-every-event
// termination. A MaxSimTime axis cuts
// the run early in the stream, mid-stream, just before, at and just after
// the last arrival (mid-drain), on the fixed fleet and behind an autoscaler
// whose ticks bound every window, so each of the run loop's stop cases
// (control event, arrival or node event past MaxSimTime) must land where
// lockstep stops. Swept at every committed worker count and at a sparse and
// a saturated arrival rate.
func TestParallelLookaheadMatchesLockstep(t *testing.T) {
	if _, ok := any(NewRoundRobin()).(LoadOblivious); !ok {
		t.Fatal("round-robin lost its LoadOblivious marker; the empty read set is untested")
	}
	dispatchers := []struct {
		name string
		mk   func() Dispatcher
	}{
		{"round-robin", NewRoundRobin},
		{"jsq", NewJSQ},
	}
	for _, rate := range []float64{8000, 60000} {
		tr := testTrace(t, rate, 59)
		last := tr.Arrivals[len(tr.Arrivals)-1].At
		for _, d := range dispatchers {
			for _, scaled := range []bool{false, true} {
				// 600µs falls in an idle gap of the sparse stream between two
				// autoscaler ticks, where a control event is the first past the
				// cut.
				cuts := []sim.Time{0, 100 * sim.Microsecond, 500 * sim.Microsecond, 600 * sim.Microsecond, last - 1, last, last + 1}
				for _, maxT := range cuts {
					name := fmt.Sprintf("rate=%g/%s/autoscale=%v/max=%v", rate, d.name, scaled, maxT)
					mkRC := func(parallel int) RunConfig {
						rc := testRunConfig(4, d.mk())
						if scaled {
							rc.Autoscale = &StepConfig{Min: 3, Max: 5, HighBacklog: 6, LowBacklog: 1}
						}
						rc.MaxSimTime = maxT
						rc.Parallel = parallel
						return rc
					}
					ref, err := Run(tr, mkRC(0))
					if err != nil {
						t.Fatal(err)
					}
					if maxT > 0 && ref.EndTime != maxT {
						t.Fatalf("%s: lockstep ended at %v, not cut at MaxSimTime", name, ref.EndTime)
					}
					for _, workers := range []int{1, 4, 8} {
						par, err := Run(tr, mkRC(workers))
						if err != nil {
							t.Fatalf("%s: parallel(%d): %v", name, workers, err)
						}
						if !sameRun(ref, par) {
							t.Errorf("%s: parallel(%d) diverged from lockstep: completed %d/%d end %v/%v",
								name, workers, ref.Completed, par.Completed, ref.EndTime, par.EndTime)
						}
					}
				}
			}
		}
	}
}

// TestParallelFallsBackToLockstep pins the documented lockstep fallbacks: a
// run with no usable arrival protocol — the request-lifecycle manager armed,
// a load-aware dispatcher hiding its Lookahead contract, or a fleet whose
// dispatch floor is zero (for load-oblivious round-robin too: its only
// window protocol is the latency-floor lookahead) — must report the lockstep
// executor at any Parallel value and reproduce the lockstep reference
// exactly.
func TestParallelFallsBackToLockstep(t *testing.T) {
	tr := testTrace(t, 40000, 61)
	jsq := []func() Dispatcher{NewJSQ}
	cases := []struct {
		name  string
		disps []func() Dispatcher
		rc    func(d Dispatcher) RunConfig
	}{
		{"resilience", jsq, func(d Dispatcher) RunConfig {
			rc := testRunConfig(3, d)
			rc.Resilience = resilienceSpec()
			return rc
		}},
		{"no-contract", jsq, func(d Dispatcher) RunConfig {
			return testRunConfig(3, struct{ Dispatcher }{d})
		}},
		{"zero-floor", []func() Dispatcher{NewJSQ, NewRoundRobin}, func(d Dispatcher) RunConfig {
			rc := testRunConfig(3, d)
			rc.Sys.PCIe.IssueLatency = 0
			rc.Sys.PCIe.BurstOverhead = 0
			if f := rc.Sys.PCIe.DispatchFloor(); f != 0 {
				t.Fatalf("zero-floor PCIe config has dispatch floor %v", f)
			}
			return rc
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, mk := range tc.disps {
				name := mk().Name()
				ref, err := Run(tr, tc.rc(mk()))
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 8} {
					rc := tc.rc(mk())
					rc.Parallel = workers
					c, err := New(tr, rc)
					if err != nil {
						t.Fatal(err)
					}
					if c.Executor() != ExecutorLockstep {
						t.Errorf("%s: parallel(%d) reports executor %q, want the lockstep fallback", name, workers, c.Executor())
					}
					par, err := c.Run()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(ref, par) {
						t.Errorf("%s: parallel(%d) diverged from lockstep", name, workers)
					}
				}
			}
		})
	}
}

// TestWarmthRoundTrip exercises the warm-start snapshot: a drained warmup
// run's dispatcher state carries into a fresh run, changes least-loaded's
// early decisions (the predictor no longer starts cold), and stays
// deterministic — two runs warmed from the same snapshot are byte-identical,
// lockstep or windowed. Mismatched policies are rejected.
func TestWarmthRoundTrip(t *testing.T) {
	warmTr := testTrace(t, 40000, 71)
	tr := testTrace(t, 40000, 72)

	warmup, err := New(warmTr, testRunConfig(3, NewLeastLoaded()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warmup.Run(); err != nil {
		t.Fatal(err)
	}
	w, err := warmup.Warmth()
	if err != nil {
		t.Fatal(err)
	}
	if w.Dispatcher != string(KindLeastLoaded) {
		t.Fatalf("warmth dispatcher = %q", w.Dispatcher)
	}
	if w.state == nil {
		t.Fatal("least-loaded warmth carries no estimator state")
	}

	mkRC := func(warm *Warmth, parallel int) RunConfig {
		rc := testRunConfig(3, NewLeastLoaded())
		rc.Warmth = warm
		rc.Parallel = parallel
		return rc
	}
	cold, err := Run(tr, mkRC(nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	warmed, err := Run(tr, mkRC(w, 0))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(cold, warmed) {
		t.Error("warm start did not change a least-loaded run (predictor state had no effect)")
	}
	again, err := Run(tr, mkRC(w, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warmed, again) {
		t.Error("warm-started run is not deterministic")
	}
	par, err := Run(tr, mkRC(w, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !sameRun(warmed, par) {
		t.Error("warm-started parallel run diverged from lockstep")
	}

	// A snapshot can only start the policy it came from.
	if _, err := Run(tr, RunConfig{
		Sys:        testRunConfig(3, NewJSQ()).Sys,
		Nodes:      3,
		Dispatcher: NewJSQ(),
		Policy:     testRunConfig(3, NewJSQ()).Policy,
		Warmth:     w,
	}); err == nil {
		t.Error("jsq run accepted a least-loaded warmth snapshot")
	}

	// An undrained cluster refuses to snapshot.
	undrained, err := New(tr, testRunConfig(3, NewLeastLoaded()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := undrained.Warmth(); err == nil {
		t.Error("undrained cluster produced a warmth snapshot")
	}
}

// TestParallelAdmissionErrorMatchesLockstep pins the failing-run half of the
// executor contract: when context tables are too small for the offered load,
// admissions fail on several nodes, often inside one window, and the windowed
// run must abort with exactly the error lockstep raises — the earliest
// failing admission in (time, node index) order, raised before any later
// merged arrival or completion. Swept over seeds, context capacities and
// every dispatch policy, at every committed worker count.
func TestParallelAdmissionErrorMatchesLockstep(t *testing.T) {
	failed := 0
	for seed := uint64(10); seed < 18; seed++ {
		tr := testTrace(t, 120000, seed)
		for _, capacity := range []int{2, 3, 4} {
			for ki, kind := range Kinds() {
				run := func(parallel int) error {
					d, err := NewDispatcher(kind, uint64(ki+1))
					if err != nil {
						t.Fatal(err)
					}
					rc := testRunConfig(4, d)
					rc.Sys.ContextCapacity = capacity
					rc.Parallel = parallel
					_, err = Run(tr, rc)
					return err
				}
				name := fmt.Sprintf("seed=%d/capacity=%d/%s", seed, capacity, kind)
				ref := run(0)
				if ref == nil {
					continue
				}
				failed++
				for _, workers := range []int{1, 4, 8} {
					if err := run(workers); err == nil || err.Error() != ref.Error() {
						t.Errorf("%s: parallel(%d) error %v, lockstep %q", name, workers, err, ref)
					}
				}
			}
		}
	}
	if failed == 0 {
		t.Fatal("no configuration failed admission; the sweep tests nothing")
	}
}
