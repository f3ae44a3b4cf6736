package cluster

import (
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/preempt"
)

// mkNode builds a dispatcher-visible node view with a fleet index and an
// in-flight count, for exercising placement rules on eligible-set subsets.
func mkNode(index, inflight int) *Node {
	return &Node{Index: index, admitted: inflight, inflightByApp: []int{inflight}}
}

// TestDispatcherEmptyEligibleSet pins the empty-set contract for every
// built-in policy: a fully masked fleet (all nodes draining, down, or behind
// open breakers) must yield -1, never a panic. Round-robin used to divide by
// zero here and p2c to call Intn(0).
func TestDispatcherEmptyEligibleSet(t *testing.T) {
	for _, kind := range Kinds() {
		d, err := NewDispatcher(kind, 3)
		if err != nil {
			t.Fatal(err)
		}
		d.Reset(4, 2, 1)
		if got := d.Pick(0, 0, 0, nil); got != -1 {
			t.Errorf("%s: Pick on empty eligible set = %d, want -1", kind, got)
		}
		if got := d.Pick(0, 1, 0, []*Node{}); got != -1 {
			t.Errorf("%s: Pick on empty slice = %d, want -1", kind, got)
		}
	}
}

// TestRoundRobinShrunkenSetContinuity pins the cursor fix: the cycle is
// anchored to fleet indices, so when a node leaves the eligible set the next
// pick continues with the departed node's successor. The old position cursor
// (next % len) aliased after the shrink — its monotone count, taken modulo
// the new length, skipped the node that was due.
func TestRoundRobinShrunkenSetContinuity(t *testing.T) {
	d := NewRoundRobin()
	d.Reset(4, 1, 1)
	n0, n1, n2, n3 := mkNode(0, 0), mkNode(1, 0), mkNode(2, 0), mkNode(3, 0)
	full := []*Node{n0, n1, n2, n3}
	if got := d.Pick(0, 0, 0, full); full[got] != n0 {
		t.Fatalf("pick 1 = node %d, want 0", full[got].Index)
	}
	if got := d.Pick(0, 0, 0, full); full[got] != n1 {
		t.Fatalf("pick 2 = node %d, want 1", full[got].Index)
	}
	// Node 1 drains: the cycle owes node 2 the next request. The position
	// cursor handed it to node 3 (2 % 3 = position 2).
	shrunk := []*Node{n0, n2, n3}
	if got := d.Pick(0, 0, 0, shrunk); shrunk[got] != n2 {
		t.Fatalf("pick after shrink = node %d, want 2 (the departed node's successor)", shrunk[got].Index)
	}
	if got := d.Pick(0, 0, 0, shrunk); shrunk[got] != n3 {
		t.Fatalf("pick = node %d, want 3", shrunk[got].Index)
	}
	// Wrap past the top of the fleet back to the lowest eligible index.
	if got := d.Pick(0, 0, 0, shrunk); shrunk[got] != n0 {
		t.Fatalf("wrap pick = node %d, want 0", shrunk[got].Index)
	}
}

// TestRoundRobinStableOnShrunkenSet checks the cycle is fair on a lasting
// subset: every eligible node is visited once per round, none twice.
func TestRoundRobinStableOnShrunkenSet(t *testing.T) {
	d := NewRoundRobin()
	d.Reset(4, 1, 1)
	elig := []*Node{mkNode(0, 0), mkNode(2, 0)} // nodes 1 and 3 are down
	counts := make(map[int]int)
	for i := 0; i < 10; i++ {
		counts[elig[d.Pick(0, 0, 0, elig)].Index]++
	}
	if counts[0] != 5 || counts[2] != 5 {
		t.Errorf("picks skewed on stable subset: %v, want 5/5", counts)
	}
}

// TestClassAffinityIndexCongruenceOnSubset pins the affinity fix: the class
// subset is keyed on fleet indices, so a class stays pinned to the same
// physical nodes when the eligible set is a non-contiguous subset. With node
// 0 down, position-congruence handed class 0 exactly the odd-index nodes —
// the other class's machines.
func TestClassAffinityIndexCongruenceOnSubset(t *testing.T) {
	d := NewClassAffinity()
	d.Reset(4, 2, 1)
	// Node 0 is down; nodes 1..3 eligible. Class 0's subset (even indices)
	// is {2}; class 1's (odd indices) is {1, 3}.
	n1, n2, n3 := mkNode(1, 0), mkNode(2, 5), mkNode(3, 1)
	elig := []*Node{n1, n2, n3}
	if got := d.Pick(0, 0, 0, elig); elig[got] != n2 {
		t.Errorf("class 0 pick = node %d, want 2 (its only even-index member, even though loaded)", elig[got].Index)
	}
	if got := d.Pick(0, 1, 0, elig); elig[got] != n1 {
		t.Errorf("class 1 pick = node %d, want 1 (shortest queue of {1, 3})", elig[got].Index)
	}
}

// TestClassAffinityElasticGrow pins that autoscaler-added nodes join their
// congruence class's subset immediately: the subsets are recomputed from the
// live eligible set on every Pick, not frozen at Reset from the initial
// fleet shape.
func TestClassAffinityElasticGrow(t *testing.T) {
	d := NewClassAffinity()
	d.Reset(2, 2, 1) // the fleet starts with two nodes
	grown := []*Node{mkNode(0, 4), mkNode(1, 4), mkNode(2, 0), mkNode(3, 0)}
	if got := d.Pick(0, 0, 0, grown); grown[got].Index != 2 {
		t.Errorf("class 0 pick after grow = node %d, want the new idle node 2", grown[got].Index)
	}
	if got := d.Pick(0, 1, 0, grown); grown[got].Index != 3 {
		t.Errorf("class 1 pick after grow = node %d, want the new idle node 3", grown[got].Index)
	}
}

// TestClassAffinityEmptySubsetFallsBack checks a class whose whole subset is
// masked is still served: it falls back to shortest-queue over the eligible
// set rather than going unserved (or panicking).
func TestClassAffinityEmptySubsetFallsBack(t *testing.T) {
	d := NewClassAffinity()
	d.Reset(4, 2, 1)
	// Only odd-index nodes are up: class 0's even-index subset is empty.
	n1, n3 := mkNode(1, 3), mkNode(3, 1)
	elig := []*Node{n1, n3}
	if got := d.Pick(0, 0, 0, elig); elig[got] != n3 {
		t.Errorf("class 0 fallback pick = node %d, want 3 (fleet-wide shortest queue)", elig[got].Index)
	}
}

// TestClassAffinityElasticGrowEndToEnd drives the affinity policy through a
// real elastic run: a backlogged fleet of 2 grows to 4 under the step
// autoscaler, and the autoscaler-added nodes must receive admissions — the
// frozen-subset bug starved exactly those nodes.
func TestClassAffinityElasticGrowEndToEnd(t *testing.T) {
	tr := testTrace(t, 60000, 17)
	rc := testRunConfig(2, NewClassAffinity())
	rc.Mechanism = func() core.Mechanism { return preempt.NewAdaptive() }
	rc.Policy = func(n int) core.Policy { return policy.NewPPQ(false) }
	rc.Autoscale = &StepConfig{Min: 2, Max: 4, HighBacklog: 2, LowBacklog: 1}
	res, err := Run(tr, rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 4 {
		t.Fatalf("fleet did not grow: %d nodes (scale-ups %d)", len(res.Nodes), res.ScaleUps)
	}
	for i := 2; i < 4; i++ {
		if res.Nodes[i].Admitted == 0 {
			t.Errorf("autoscaler-added node %d received no affinity traffic", i)
		}
	}
}
