package cluster

import (
	"math"
	"strings"
	"testing"

	"repro/internal/arrivals"
	"repro/internal/core"
	"repro/internal/parboil"
	"repro/internal/policy"
	"repro/internal/preempt"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"
)

// testTrace generates a small two-class open-system stream over scaled
// Parboil micro-requests.
func testTrace(t testing.TB, rate float64, seed uint64) *trace.ArrivalTrace {
	t.Helper()
	return testTraceFor(t, rate, seed, 3*sim.Millisecond)
}

// testTraceFor is testTrace over a chosen horizon.
func testTraceFor(t testing.TB, rate float64, seed uint64, horizon sim.Time) *trace.ArrivalTrace {
	t.Helper()
	suite := parboil.Suite()
	for i, a := range suite {
		suite[i] = a.Scale(96)
	}
	micro := arrivals.MicroApps(suite)
	var short, long []arrivals.AppChoice
	for _, c := range micro {
		if c.App.Kernels[0].TBTime <= 10*sim.Microsecond {
			short = append(short, c)
		} else {
			long = append(long, c)
		}
	}
	tr, err := arrivals.Generate(arrivals.GenSpec{
		Process: arrivals.ProcPoisson,
		Rate:    rate,
		Horizon: horizon,
		Seed:    seed,
		Classes: []arrivals.ClassSpec{
			{Name: "rt", Priority: 1, Weight: 1, Deadline: 300 * sim.Microsecond, Apps: short},
			{Name: "batch", Priority: 0, Weight: 3, Apps: long},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// testRunConfig builds a PPQ + context-switch cluster configuration.
func testRunConfig(nodes int, d Dispatcher) RunConfig {
	sys := system.DefaultConfig()
	sys.Seed = 7
	return RunConfig{
		Sys:        sys,
		Nodes:      nodes,
		Dispatcher: d,
		Policy:     func(n int) core.Policy { return policy.NewPPQ(false) },
		Mechanism:  func() core.Mechanism { return preempt.ContextSwitch{} },
	}
}

func TestClusterRunCompletesAndConserves(t *testing.T) {
	tr := testTrace(t, 40000, 11)
	res, err := Run(tr, testRunConfig(4, NewJSQ()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != len(tr.Arrivals) {
		t.Errorf("admitted %d of %d arrivals", res.Admitted, len(tr.Arrivals))
	}
	if res.Admitted != res.Completed+res.InFlight {
		t.Errorf("conservation violated: %d != %d + %d", res.Admitted, res.Completed, res.InFlight)
	}
	if len(res.Nodes) != 4 {
		t.Fatalf("node results = %d, want 4", len(res.Nodes))
	}
	var adm, done int
	for i, n := range res.Nodes {
		adm += n.Admitted
		done += n.Completed
		if n.Admitted != n.Completed+n.InFlight {
			t.Errorf("node %d conservation violated: %d != %d + %d", i, n.Admitted, n.Completed, n.InFlight)
		}
	}
	if adm != res.Admitted || done != res.Completed {
		t.Errorf("node sums (%d/%d) disagree with rollup (%d/%d)", adm, done, res.Admitted, res.Completed)
	}
	if res.EndTime <= 0 {
		t.Error("non-positive end time")
	}
	if res.Dispatcher != string(KindJSQ) {
		t.Errorf("dispatcher label = %q", res.Dispatcher)
	}
	// JSQ actually spreads work: no node hogs the whole stream.
	for i, n := range res.Nodes {
		if n.Admitted == res.Admitted {
			t.Errorf("node %d received every request under JSQ", i)
		}
	}
}

// TestClusterSingleNodeMatchesShape checks the degenerate 1-node cluster
// still completes and reports exactly one node holding everything.
func TestClusterSingleNode(t *testing.T) {
	tr := testTrace(t, 20000, 3)
	res, err := Run(tr, testRunConfig(1, NewRoundRobin()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 1 || res.Nodes[0].Admitted != res.Admitted {
		t.Errorf("single-node cluster did not route everything to node 0")
	}
}

// TestClusterMoreNodesFinishFaster pins the fleet-scaling direction: the
// same overloaded stream completes no later (virtual time) on 4 nodes than
// on 1, and the rt class misses no more deadlines.
func TestClusterMoreNodesFinishFaster(t *testing.T) {
	tr := testTrace(t, 60000, 5)
	one, err := Run(tr, testRunConfig(1, NewJSQ()))
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(tr, testRunConfig(4, NewJSQ()))
	if err != nil {
		t.Fatal(err)
	}
	if four.EndTime > one.EndTime {
		t.Errorf("4 nodes finished at %v, later than 1 node at %v", four.EndTime, one.EndTime)
	}
	if four.Missed > one.Missed {
		t.Errorf("4 nodes missed %d deadlines, 1 node only %d", four.Missed, one.Missed)
	}
}

func TestClusterWatchdogLeavesInFlight(t *testing.T) {
	tr := testTrace(t, 60000, 9)
	rc := testRunConfig(2, NewRoundRobin())
	rc.MaxSimTime = 500 * sim.Microsecond
	res, err := Run(tr, rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.EndTime != rc.MaxSimTime {
		t.Errorf("end time %v, want the watchdog horizon %v", res.EndTime, rc.MaxSimTime)
	}
	if res.InFlight == 0 {
		t.Error("watchdog horizon left nothing in flight: the trace is miscalibrated")
	}
	if res.Admitted != res.Completed+res.InFlight {
		t.Errorf("conservation violated under watchdog: %d != %d + %d", res.Admitted, res.Completed, res.InFlight)
	}
}

func TestClusterRejectsBadConfig(t *testing.T) {
	tr := testTrace(t, 20000, 3)
	rc := testRunConfig(2, NewJSQ())
	rc.Policy = nil
	if _, err := Run(tr, rc); err == nil {
		t.Error("missing policy factory accepted")
	}
	rc = testRunConfig(2, NewJSQ())
	rc.Sys.GPU.NumSMs = 0
	if _, err := Run(tr, rc); err == nil {
		t.Error("invalid node config accepted")
	}
	for _, s := range []float64{-1, math.NaN()} {
		rc = testRunConfig(2, NewJSQ())
		rc.Sys.TimeScale = s
		if _, err := Run(tr, rc); err == nil {
			t.Errorf("time scale %v accepted", s)
		}
	}
	if _, err := Run(&trace.ArrivalTrace{}, testRunConfig(2, NewJSQ())); err == nil {
		t.Error("invalid trace accepted")
	}
	rc = testRunConfig(2, NewJSQ())
	rc.Autoscale = &StepConfig{Min: 3, Max: 2}
	if _, err := New(tr, rc); err == nil || !strings.Contains(err.Error(), "autoscale bounds") {
		t.Errorf("autoscale max below min accepted: %v", err)
	}
	// A zero policy takes every default.
	rc.Autoscale = &StepConfig{}
	if res, err := Run(tr, rc); err != nil {
		t.Errorf("zero autoscale policy rejected: %v", err)
	} else if res.Autoscaler != "step" {
		t.Errorf("zero autoscale policy reports autoscaler %q", res.Autoscaler)
	}
}

// TestInvalidAppRejectedAtSetUp pins the precondition proc.Reuse relies on:
// an arrival trace holding an invalid application is rejected when the run
// is set up, by both the cluster and the single-GPU open-system engine, so
// per-request admission never has to validate an app again.
func TestInvalidAppRejectedAtSetUp(t *testing.T) {
	tr := testTrace(t, 20000, 3)
	bad := *tr
	bad.Apps = append([]*trace.App(nil), tr.Apps...)
	broken := *bad.Apps[len(bad.Apps)-1]
	broken.Ops = append([]trace.Op{{Kind: trace.OpLaunch, Kernel: len(broken.Kernels)}}, broken.Ops...)
	bad.Apps[len(bad.Apps)-1] = &broken
	if _, err := New(&bad, testRunConfig(2, NewJSQ())); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("cluster.New accepted a trace with an invalid app: %v", err)
	}
	rc := testRunConfig(1, nil)
	_, err := arrivals.Run(&bad, arrivals.RunConfig{Sys: rc.Sys, Policy: rc.Policy, Mechanism: rc.Mechanism})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("arrivals.Run accepted a trace with an invalid app: %v", err)
	}
	// The untouched trace still runs: the rejection is the broken app's.
	if _, err := Run(tr, testRunConfig(2, NewJSQ())); err != nil {
		t.Fatal(err)
	}
}

// badDispatcher returns an out-of-range node.
type badDispatcher struct{ noopHooks }

func (badDispatcher) Name() string                                    { return "bad" }
func (badDispatcher) Reset(nodes, classes, apps int)                  {}
func (badDispatcher) Pick(at sim.Time, class, app int, n []*Node) int { return len(n) }

func TestClusterRejectsOutOfRangePick(t *testing.T) {
	tr := testTrace(t, 20000, 3)
	_, err := Run(tr, testRunConfig(2, badDispatcher{}))
	if err == nil || !strings.Contains(err.Error(), "picked position") {
		t.Errorf("out-of-range pick not rejected: %v", err)
	}
}

func TestClusterRunTwiceRejected(t *testing.T) {
	tr := testTrace(t, 20000, 3)
	c, err := New(tr, testRunConfig(2, NewJSQ()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err == nil {
		t.Error("second Run on the same Cluster accepted")
	}
}

// TestDispatcherPolicies exercises each built-in policy's placement rule on
// hand-built node states.
func TestDispatcherPolicies(t *testing.T) {
	mkNodes := func(inflight ...int) []*Node {
		nodes := make([]*Node, len(inflight))
		for i, f := range inflight {
			nodes[i] = &Node{Index: i, admitted: f, inflightByApp: []int{f}}
		}
		return nodes
	}

	rr, err := NewDispatcher(KindRoundRobin, 1)
	if err != nil {
		t.Fatal(err)
	}
	rr.Reset(3, 2, 1)
	nodes := mkNodes(5, 0, 0)
	for i, want := range []int{0, 1, 2, 0} {
		if got := rr.Pick(0, 0, 0, nodes); got != want {
			t.Errorf("round-robin pick %d = %d, want %d", i, got, want)
		}
	}

	q := NewJSQ()
	q.Reset(3, 2, 1)
	if got := q.Pick(0, 0, 0, mkNodes(2, 1, 1)); got != 1 {
		t.Errorf("jsq pick = %d, want 1 (shortest queue, lowest index)", got)
	}

	ca := NewClassAffinity()
	ca.Reset(4, 2, 1)
	n4 := mkNodes(0, 0, 9, 0)
	if got := ca.Pick(0, 0, 0, n4); got != 0 {
		t.Errorf("affinity class 0 pick = %d, want 0 (subset {0,2}, node 2 loaded)", got)
	}
	if got := ca.Pick(0, 1, 0, n4); got != 1 {
		t.Errorf("affinity class 1 pick = %d, want 1 (subset {1,3})", got)
	}
	// More classes than nodes: classes fold onto the same subsets.
	ca.Reset(2, 5, 1)
	if got := ca.Pick(0, 4, 0, mkNodes(1, 0)); got != 0 {
		t.Errorf("affinity folded class pick = %d, want 0 (class 4 mod 2)", got)
	}

	ll := NewLeastLoaded()
	ll.Reset(2, 2, 2)
	// Node 0 holds one slow request (app 0), node 1 two fast ones (app 1):
	// plain JSQ would pick node 0, the backlog estimate picks node 1.
	nodes = []*Node{
		{Index: 0, admitted: 1, inflightByApp: []int{1, 0}},
		{Index: 1, admitted: 2, inflightByApp: []int{0, 2}},
	}
	ll.Completed(0, 0, 0, 100*sim.Microsecond)
	ll.Completed(1, 1, 1, 2*sim.Microsecond)
	if got := ll.Pick(0, 0, 0, nodes); got != 1 {
		t.Errorf("least-loaded pick = %d, want 1 (2 fast requests < 1 slow)", got)
	}
	// Before any completion it degenerates to queue counting.
	ll.Reset(2, 2, 2)
	if got := ll.Pick(0, 0, 0, nodes); got != 0 {
		t.Errorf("cold least-loaded pick = %d, want 0 (plain queue count)", got)
	}

	p2 := NewPowerOfTwo(42)
	p2.Reset(8, 2, 1)
	nodes = mkNodes(1, 1, 1, 1, 1, 1, 1, 1)
	a := make([]int, 16)
	for i := range a {
		a[i] = p2.Pick(0, 0, 0, nodes)
	}
	p2.Reset(8, 2, 1)
	for i := range a {
		if got := p2.Pick(0, 0, 0, nodes); got != a[i] {
			t.Fatalf("p2c not reproducible after Reset: pick %d = %d, want %d", i, got, a[i])
		}
	}

	if _, err := NewDispatcher("no-such-policy", 1); err == nil {
		t.Error("unknown dispatch kind accepted")
	}
	if d, err := NewDispatcher("", 1); err != nil || d.Name() != string(KindRoundRobin) {
		t.Errorf("empty kind should default to round-robin, got %v, %v", d, err)
	}
}

func TestClusterRejectsAbsurdNodeCount(t *testing.T) {
	tr := testTrace(t, 20000, 3)
	rc := testRunConfig(MaxNodes+1, NewJSQ())
	if _, err := Run(tr, rc); err == nil {
		t.Errorf("node count above MaxNodes accepted")
	}
}
