package cluster

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/preempt"
	"repro/internal/resilience"
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

// pinDispatcher sends every request to the fleet node with index to.
type pinDispatcher struct{ to int }

func (*pinDispatcher) Name() string                      { return "pin" }
func (*pinDispatcher) Reset(nodes, classes, apps int)    {}
func (*pinDispatcher) Dispatched(node, class, app int)   {}
func (*pinDispatcher) Completed(int, int, int, sim.Time) {}
func (d *pinDispatcher) Pick(_ sim.Time, _, _ int, nodes []*Node) int {
	for p, n := range nodes {
		if n.Index == d.to {
			return p
		}
	}
	return -1
}

// TestKillLosesInOrder pins the order in which a kill loses a node's
// in-flight requests, on which every later dispatch decision depends:
// arrival order on the plain path, launch order of the attempts on the
// resilient one — never the order of the node's live slots, which are
// reused as requests complete. Every request goes to node 0 until a run
// stopped mid-stream leaves it loaded; the kill then re-dispatches (plain)
// or immediately retries (resilient, no backoff) each lost request onto
// node 1, whose empty live table hands out slots in dispatch order.
func TestKillLosesInOrder(t *testing.T) {
	for _, resilient := range []bool{false, true} {
		name := map[bool]string{false: "plain", true: "resilient"}[resilient]
		t.Run(name, func(t *testing.T) {
			tr := testTrace(t, 300000, 5)
			disp := &pinDispatcher{}
			rc := testRunConfig(2, disp)
			rc.MaxSimTime = 400 * sim.Microsecond
			rc.Faults = &FaultSpec{Downtime: 50 * sim.Microsecond}
			if resilient {
				rc.Resilience = &resilience.Spec{Retry: &resilience.RetryPolicy{MaxAttempts: 4}}
			}
			c, err := New(tr, rc)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Run(); err != nil {
				t.Fatal(err)
			}
			n0, n1 := c.Nodes[0], c.Nodes[1]
			if len(n1.live.slots) != 0 {
				t.Fatal("node 1 received work before the kill")
			}
			// The order key of each in-flight request on node 0, in slot
			// order, and the arrival it carries.
			type req struct{ key, arr int }
			var inSlots []req
			for s := range n0.live.slots {
				rec := n0.live.at(s)
				if !rec.on {
					continue
				}
				r := req{key: rec.id, arr: rec.id}
				if resilient {
					att := c.atts.at(rec.id)
					r = req{key: att.seq, arr: att.arr}
				}
				inSlots = append(inSlots, r)
			}
			want := slices.Clone(inSlots)
			slices.SortFunc(want, func(a, b req) int { return cmp.Compare(a.key, b.key) })
			if len(want) < 3 || slices.Equal(inSlots, want) {
				t.Fatalf("node 0 holds %d requests whose slot order %v already is the loss order; the test cannot tell them apart", len(want), inSlots)
			}

			disp.to = 1
			c.killNode(n0, c.now)
			var got []int
			for s := range n1.live.slots {
				rec := n1.live.at(s)
				if resilient {
					got = append(got, c.atts.at(rec.id).arr)
				} else {
					got = append(got, rec.id)
				}
			}
			var wantArr []int
			for _, r := range want {
				wantArr = append(wantArr, r.arr)
			}
			if !slices.Equal(got, wantArr) {
				t.Errorf("kill re-dispatched arrivals %v, want them in loss order %v", got, wantArr)
			}
		})
	}
}
