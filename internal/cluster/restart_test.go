package cluster

import (
	"testing"

	"repro/internal/core"
	"repro/internal/preempt"
	"repro/internal/sim"
)

// Sinks keep the factory results below on the heap, as they are when a
// restart hands them to the machine.
var (
	sinkPolicy core.Policy
	sinkMech   core.Mechanism
)

// TestKillRestartAllocs gates per-incarnation recycling: a kill/restart
// cycle of a warm node resets its machine, admission desk and memory ledger
// in place, so it allocates only what the incarnation's factories allocate:
// the policy and the mechanism (with PPQ and the adaptive mechanism, 1 + 3 =
// 4 allocations). The straggler draw's rng.Source does not escape
// stragglerFactor, so it stays on the stack.
func TestKillRestartAllocs(t *testing.T) {
	tr := testTrace(t, 40000, 11)
	rc := testRunConfig(2, NewJSQ())
	rc.Mechanism = func() core.Mechanism { return preempt.NewAdaptive() }
	rc.Sys.GPU.MemSize = 1 << 30
	rc.Faults = &FaultSpec{Downtime: 50 * sim.Microsecond, StragglerFrac: 0.5, SlowFactor: 2}
	c, err := New(tr, rc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	n := c.Nodes[0]
	if n.finished == 0 {
		t.Fatal("node 0 served nothing; it is not warm")
	}
	sys, adm := n.Sys, n.adm
	cycle := func() {
		c.killNode(n, c.now)
		c.ctl.Step() // the restart
		c.now = c.ctl.Now()
		if n.state != NodeUp || c.err != nil {
			t.Fatalf("node not restarted: state %v, err %v", n.state, c.err)
		}
	}
	got := testing.AllocsPerRun(20, cycle)
	want := testing.AllocsPerRun(20, func() {
		sinkPolicy = rc.Policy(len(tr.Classes))
		sinkMech = rc.Mechanism()
	})
	if got != want || want != 4 {
		t.Errorf("a kill/restart cycle allocates %v times, want %v (the policy and mechanism factories; 4 expected)", got, want)
	}
	if n.Sys != sys || n.adm != adm {
		t.Error("restart built a new machine or admission desk instead of resetting the old one")
	}
	if n.incarnation != 21 {
		t.Errorf("%d incarnations, want 21", n.incarnation)
	}
}
