package cluster

import (
	"reflect"
	"testing"

	"repro/internal/arrivals"
	"repro/internal/core"
	"repro/internal/preempt"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/trace"
)

// subTrace returns the arrivals a round-robin dispatcher places on node slot
// k of an n-node fixed fleet: every n-th arrival, sharing the full trace's
// app and class tables so per-class accounting lines up.
func subTrace(tr *trace.ArrivalTrace, k, n int) *trace.ArrivalTrace {
	sub := &trace.ArrivalTrace{Apps: tr.Apps, Classes: tr.Classes}
	for i := k; i < len(tr.Arrivals); i += n {
		sub.Arrivals = append(sub.Arrivals, tr.Arrivals[i])
	}
	return sub
}

// TestDifferentialFixedFleetDecomposes pins the elastic refactor against the
// fixed-fleet semantics it replaced: with the autoscaler and fault injector
// off, an n-node round-robin cluster is exactly n independent single-machine
// open systems. Each node slot's per-class counters, quantile sketches and
// execution-engine stats must deep-equal a standalone arrivals.Run of that
// node's sub-stream under the same derived seed and dispatch-path admit
// delay (the cluster charges every placement the PCIe latency floor) — for
// every preemption mechanism. Any control-engine leakage into the data path (a reordered
// event, a perturbed seed, a stray tick) breaks the equality.
func TestDifferentialFixedFleetDecomposes(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep in -short mode")
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
	tr := testTrace(t, 40000, 55)
	const nodes = 3

	for _, mech := range mechs {
		rc := testRunConfig(nodes, NewRoundRobin())
		rc.Mechanism = mech.mk
		res, err := Run(tr, rc)
		if err != nil {
			t.Fatalf("%s: %v", mech.name, err)
		}

		for k := 0; k < nodes; k++ {
			sub := subTrace(tr, k, nodes)
			sys := rc.Sys
			sys.Seed = nodeSeed(rc.Sys.Seed, k, 0)
			sys.ContextCapacity = arrivals.ContextCapacityFor(tr)
			solo, err := arrivals.Run(sub, arrivals.RunConfig{
				Sys:        sys,
				Policy:     rc.Policy,
				Mechanism:  mech.mk,
				AdmitDelay: sys.PCIe.DispatchFloor(),
			})
			if err != nil {
				t.Fatalf("%s: standalone node %d: %v", mech.name, k, err)
			}
			n := &res.Nodes[k]
			if n.Admitted != solo.Admitted || n.Completed != solo.Completed || n.Missed != solo.Missed {
				t.Errorf("%s: node %d counters (%d/%d/%d) != standalone (%d/%d/%d)",
					mech.name, k, n.Admitted, n.Completed, n.Missed,
					solo.Admitted, solo.Completed, solo.Missed)
			}
			if !reflect.DeepEqual(n.Classes, solo.Classes) {
				t.Errorf("%s: node %d per-class accounting diverged from its standalone run",
					mech.name, k)
			}
			if n.Stats != solo.Stats {
				t.Errorf("%s: node %d stats %+v != standalone %+v", mech.name, k, n.Stats, solo.Stats)
			}
			if k == 0 && solo.EndTime > res.EndTime {
				t.Errorf("%s: fleet ended at %v before standalone node 0 at %v",
					mech.name, res.EndTime, solo.EndTime)
			}
		}
	}
}

// TestDifferentialElasticMachineryIsInert pins that merely enabling the
// elastic machinery does not perturb a fixed fleet: a zero-rate fault plan
// and a pinned (min == max, no thresholds) autoscaler must reproduce the
// plain fixed-fleet Result bit for bit — same counters, sketches, end time,
// utilization — differing only in the reported autoscaler name.
func TestDifferentialElasticMachineryIsInert(t *testing.T) {
	tr := testTrace(t, 40000, 56)
	const nodes = 3

	run := func(mut func(*RunConfig)) *Result {
		t.Helper()
		rc := testRunConfig(nodes, NewJSQ())
		if mut != nil {
			mut(&rc)
		}
		res, err := Run(tr, rc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	base := run(nil)

	zeroFaults := run(func(rc *RunConfig) {
		rc.Faults = &FaultSpec{} // no kills, no stragglers
	})
	if !reflect.DeepEqual(base, zeroFaults) {
		t.Errorf("zero-rate fault plan perturbed the fixed-fleet result")
	}

	pinned := run(func(rc *RunConfig) {
		rc.Autoscale = &StepConfig{Min: nodes, Max: nodes}
	})
	if pinned.Autoscaler != "step" {
		t.Fatalf("pinned run reports autoscaler %q", pinned.Autoscaler)
	}
	pinned.Autoscaler = base.Autoscaler
	if !reflect.DeepEqual(base, pinned) {
		t.Errorf("pinned autoscaler (min == max, no thresholds) perturbed the fixed-fleet result")
	}
}

// TestDifferentialZeroResilienceIsInert pins the resilience layer's inertness
// contract: a zero-valued (but non-nil) ResilienceSpec arms nothing, so the
// run must reproduce the plain fleet Result bit for bit — the exact PR-6 code
// path, not a well-tuned imitation of it.
func TestDifferentialZeroResilienceIsInert(t *testing.T) {
	tr := testTrace(t, 40000, 57)

	run := func(mut func(*RunConfig)) *Result {
		t.Helper()
		rc := testRunConfig(3, NewJSQ())
		rc.Faults = &FaultSpec{KillRate: 2000, Downtime: 300 * sim.Microsecond}
		if mut != nil {
			mut(&rc)
		}
		res, err := Run(tr, rc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	base := run(nil)
	zero := run(func(rc *RunConfig) { rc.Resilience = &resilience.Spec{} })
	if !reflect.DeepEqual(base, zero) {
		t.Errorf("zero-valued resilience spec perturbed the plain fleet result")
	}
	seedOnly := run(func(rc *RunConfig) { rc.Resilience = &resilience.Spec{Seed: 99} })
	if !reflect.DeepEqual(base, seedOnly) {
		t.Errorf("seed-only resilience spec (arms nothing) perturbed the plain fleet result")
	}
}

// TestDifferentialResilientSingleNodeDecomposes pins the lifecycle manager's
// pass-through: a single-node fleet with shedding disabled, no timeouts, no
// retries and no faults routes every request through the attempt machinery
// exactly once, so the node's per-class accounting and engine stats must
// deep-equal a plain standalone arrivals.Run of the full trace.
func TestDifferentialResilientSingleNodeDecomposes(t *testing.T) {
	tr := testTrace(t, 40000, 58)

	rc := testRunConfig(1, NewRoundRobin())
	// Hedging armed but structurally inert: a single-node fleet has no other
	// node to hedge on, so the manager is live while the dispatch stream must
	// stay untouched.
	rc.Resilience = &resilience.Spec{Hedge: &resilience.HedgePolicy{Quantile: 0.5, MinObs: 1}}
	res, err := Run(tr, rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hedges != 0 || res.Retries != 0 || res.Dropped != 0 || res.Shed != 0 {
		t.Fatalf("single-node run hedged/retried/dropped/shed: %d/%d/%d/%d",
			res.Hedges, res.Retries, res.Dropped, res.Shed)
	}
	if res.ReqCompleted != len(tr.Arrivals) {
		t.Fatalf("completed %d of %d requests", res.ReqCompleted, len(tr.Arrivals))
	}

	sys := rc.Sys
	sys.Seed = nodeSeed(rc.Sys.Seed, 0, 0)
	sys.ContextCapacity = arrivals.ContextCapacityFor(tr)
	solo, err := arrivals.Run(tr, arrivals.RunConfig{
		Sys:        sys,
		Policy:     rc.Policy,
		Mechanism:  rc.Mechanism,
		AdmitDelay: sys.PCIe.DispatchFloor(),
	})
	if err != nil {
		t.Fatal(err)
	}
	n := &res.Nodes[0]
	if n.Admitted != solo.Admitted || n.Completed != solo.Completed || n.Missed != solo.Missed {
		t.Errorf("node counters (%d/%d/%d) != standalone (%d/%d/%d)",
			n.Admitted, n.Completed, n.Missed, solo.Admitted, solo.Completed, solo.Missed)
	}
	if !reflect.DeepEqual(n.Classes, solo.Classes) {
		t.Errorf("per-class accounting diverged from the standalone run")
	}
	if n.Stats != solo.Stats {
		t.Errorf("node stats %+v != standalone %+v", n.Stats, solo.Stats)
	}
}
