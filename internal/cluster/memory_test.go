package cluster

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/arrivals"
	"repro/internal/parboil"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Working-set and HBM sizes for the memory tests: batch working sets are
// several times the rt ones, tight nodes hold barely more than one batch
// working set, roomy nodes several.
const (
	memTestRTWS    = 1 << 20
	memTestBatchWS = 6 << 20
	memTestTight   = 8 << 20
	memTestRoomy   = 32 << 20
)

// memTrace generates the two-class test stream with explicit working sets on
// cloned apps: every request carries a device-memory footprint, so the
// per-node ledger binds wherever HBM is scarce.
func memTrace(t testing.TB, rate float64, seed uint64) *trace.ArrivalTrace {
	t.Helper()
	suite := parboil.Suite()
	for i, a := range suite {
		suite[i] = a.Scale(96)
	}
	micro := arrivals.MicroApps(suite)
	var short, long []arrivals.AppChoice
	for _, c := range micro {
		a := c.App.Clone()
		if a.Kernels[0].TBTime <= 10*sim.Microsecond {
			a.WorkingSet = memTestRTWS
			c.App = a
			short = append(short, c)
		} else {
			a.WorkingSet = memTestBatchWS
			c.App = a
			long = append(long, c)
		}
	}
	tr, err := arrivals.Generate(arrivals.GenSpec{
		Process: arrivals.ProcPoisson,
		Rate:    rate,
		Horizon: 3 * sim.Millisecond,
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

// checkSwapLedger asserts the result-level memory conservation law: once
// nothing is in flight, every swapped-out byte either swapped back in or was
// lost to a kill — fleet-wide and per node slot (swap events are node-local,
// so the identity holds at slot granularity too).
func checkSwapLedger(t *testing.T, name string, res *Result) {
	t.Helper()
	if res.InFlight != 0 {
		return
	}
	if res.SwapOutBytes != res.SwapInBytes+res.SwapLostBytes {
		t.Errorf("%s: swap ledger violated: %d out != %d in + %d lost",
			name, res.SwapOutBytes, res.SwapInBytes, res.SwapLostBytes)
	}
	for i, n := range res.Nodes {
		if n.SwapOutBytes != n.SwapInBytes+n.SwapLostBytes {
			t.Errorf("%s: node %d swap ledger violated: %d out != %d in + %d lost",
				name, i, n.SwapOutBytes, n.SwapInBytes, n.SwapLostBytes)
		}
	}
}

// TestMemoryBlockOversubscription pins block-mode semantics: on a node whose
// HBM holds barely one batch working set, admission serializes on memory and
// the run takes strictly longer than with roomy HBM — with zero swap
// activity, because blocking never spills.
func TestMemoryBlockOversubscription(t *testing.T) {
	tr := memTrace(t, 40000, 31)

	tight := testRunConfig(1, NewLeastLoaded())
	tight.Sys.GPU.MemSize = memTestTight
	resTight, err := Run(tr, tight)
	if err != nil {
		t.Fatal(err)
	}

	roomy := testRunConfig(1, NewLeastLoaded())
	roomy.Sys.GPU.MemSize = 1 << 30
	resRoomy, err := Run(tr, roomy)
	if err != nil {
		t.Fatal(err)
	}

	if resTight.Completed != len(tr.Arrivals) {
		t.Fatalf("blocked run completed %d of %d arrivals", resTight.Completed, len(tr.Arrivals))
	}
	if resTight.Spills != 0 || resTight.SwapOutBytes != 0 {
		t.Errorf("block mode swapped: spills=%d out=%d bytes", resTight.Spills, resTight.SwapOutBytes)
	}
	if resTight.EndTime <= resRoomy.EndTime {
		t.Errorf("tight HBM (%v) did not stretch the run past roomy HBM (%v): memory never bound",
			resTight.EndTime, resRoomy.EndTime)
	}
	if got := resTight.Nodes[0].HBM; got != memTestTight {
		t.Errorf("node reports HBM %d, want %d", got, memTestTight)
	}
}

// TestMemorySwapConservation pins swap-mode accounting on an oversubscribed
// node: working sets that do not fit swap out over PCIe and back in, every
// spill pairs with exactly one swap-in, and the byte ledger closes with
// nothing lost (no kills).
func TestMemorySwapConservation(t *testing.T) {
	tr := memTrace(t, 40000, 31)
	rc := testRunConfig(1, NewLeastLoaded())
	rc.Sys.GPU.MemSize = memTestTight
	rc.Swap = true
	res, err := Run(tr, rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(tr.Arrivals) {
		t.Fatalf("swap run completed %d of %d arrivals", res.Completed, len(tr.Arrivals))
	}
	if res.Spills == 0 {
		t.Fatal("oversubscribed swap run spilled nothing: memory never bound")
	}
	if res.SwapIns != res.Spills {
		t.Errorf("spills=%d but swap-ins=%d: a waiter vanished", res.Spills, res.SwapIns)
	}
	if res.SwapLostBytes != 0 {
		t.Errorf("fault-free run lost %d swapped bytes", res.SwapLostBytes)
	}
	checkSwapLedger(t, "swap", res)
}

// TestMemoryRejectsInvalidConfig pins the validation surface: a negative
// base HBM (Sys.GPU.MemSize), and any working set larger than the smallest
// node's HBM (which could never be admitted and would deadlock its queue),
// are rejected up front.
func TestMemoryRejectsInvalidConfig(t *testing.T) {
	tr := memTrace(t, 40000, 31)

	rc := testRunConfig(1, NewLeastLoaded())
	rc.Sys.GPU.MemSize = -1
	if _, err := Run(tr, rc); err == nil || !strings.Contains(err.Error(), "MemSize must be positive") {
		t.Errorf("negative HBM accepted: %v", err)
	}

	rc = testRunConfig(1, NewLeastLoaded())
	rc.Sys.GPU.MemSize = memTestBatchWS - 1
	if _, err := Run(tr, rc); err == nil || !strings.Contains(err.Error(), "working set") {
		t.Errorf("working set exceeding HBM accepted: %v", err)
	}
}

// TestMemoryNodeTypeHBMOverride pins the capacity precedence: a node type's
// HBMBytes overrides the base machine's Sys.GPU.MemSize, and each node slot
// reports the capacity it actually got.
func TestMemoryNodeTypeHBMOverride(t *testing.T) {
	tr := memTrace(t, 40000, 31)
	rc := testRunConfig(0, NewLeastLoaded())
	rc.Sys.GPU.MemSize = memTestRoomy
	rc.NodeTypes = []NodeType{
		{Count: 1},                         // inherits the base capacity
		{Count: 1, HBMBytes: memTestTight}, // per-type override wins
		{Count: 1, HBMBytes: 2 * memTestRoomy},
	}
	res, err := Run(tr, rc)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{memTestRoomy, memTestTight, 2 * memTestRoomy}
	for i, w := range want {
		if got := res.Nodes[i].HBM; got != w {
			t.Errorf("node %d HBM = %d, want %d", i, got, w)
		}
	}
}

// TestLeastLoadedFitsAvoidsFullNodes pins the dispatcher's two-phase pick
// directly: among nodes with room it takes the least loaded, and when no
// node fits it minimizes the oversubscription debt instead of returning -1 —
// every request still places somewhere.
func TestLeastLoadedFitsAvoidsFullNodes(t *testing.T) {
	d := NewLeastLoadedFits()
	d.Reset(3, 1, 1)
	d.(WorkingSetAware).SetWorkingSets([]int64{memTestBatchWS})

	full := mkNode(0, 1)
	full.hbm = memTestTight
	full.memDemand = memTestTight // no room for another batch set
	idle := mkNode(1, 0)
	idle.hbm = memTestRoomy
	busy := mkNode(2, 3)
	busy.hbm = memTestRoomy

	if got := d.Pick(0, 0, 0, []*Node{full, idle, busy}); got != 1 {
		t.Errorf("picked node %d, want the idle node with room (1)", got)
	}
	// The least-loaded node wins among those that fit, even when another
	// fitting node is idle by backlog but full by memory.
	if got := d.Pick(0, 0, 0, []*Node{full, busy}); got != 1 {
		t.Errorf("picked node %d, want the fitting busy node (1)", got)
	}
	// Nothing fits: fall back to the smallest memory debt, not -1.
	other := mkNode(1, 0)
	other.hbm = memTestTight
	other.memDemand = memTestTight + memTestBatchWS
	if got := d.Pick(0, 0, 0, []*Node{full, other}); got != 0 {
		t.Errorf("picked node %d, want the least-oversubscribed node (0)", got)
	}
	if got := d.Pick(0, 0, 0, nil); got != -1 {
		t.Errorf("empty eligible set returned %d, want -1", got)
	}
}

// TestChaosMemoryConservation extends the chaos sweep to the memory
// subsystem: every dispatch policy runs a working-set stream on a
// heterogeneous fleet (tight and roomy HBM) in both block and swap mode,
// with and without aggressive node kills, and must keep attempt
// conservation, close the swap byte ledger (kills feeding SwapLostBytes),
// replay deeply equal, and produce the identical Result under
// parallel-in-time execution — swap traffic is node-local, so windows
// cannot reorder it.
func TestChaosMemoryConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized chaos sweep in -short mode")
	}
	tr := memTrace(t, 40000, 204)
	killRates := []float64{0, 6000}

	for ki, kind := range Kinds() {
		for _, swap := range []bool{false, true} {
			for _, killRate := range killRates {
				mkRC := func() RunConfig {
					d, err := NewDispatcher(kind, uint64(ki+1))
					if err != nil {
						t.Fatal(err)
					}
					rc := testRunConfig(0, d)
					rc.NodeTypes = []NodeType{
						{Count: 2, HBMBytes: memTestRoomy},
						{Count: 2, HBMBytes: memTestTight},
					}
					rc.Swap = swap
					if killRate > 0 {
						rc.Faults = &FaultSpec{KillRate: killRate, Downtime: 300 * sim.Microsecond}
					}
					return rc
				}

				res, err := Run(tr, mkRC())
				if err != nil {
					t.Fatalf("%s/swap=%v/kill=%g: %v", kind, swap, killRate, err)
				}
				name := string(kind) + "/swap=" + map[bool]string{false: "off", true: "on"}[swap]
				if res.Admitted != res.Completed+res.Lost+res.InFlight {
					t.Errorf("%s/kill=%g: conservation violated: %d != %d + %d + %d",
						name, killRate, res.Admitted, res.Completed, res.Lost, res.InFlight)
				}
				if !swap && (res.Spills != 0 || res.SwapOutBytes != 0) {
					t.Errorf("%s/kill=%g: block mode swapped (spills=%d out=%d)",
						name, killRate, res.Spills, res.SwapOutBytes)
				}
				if killRate == 0 && res.SwapLostBytes != 0 {
					t.Errorf("%s: fault-free run lost %d swapped bytes", name, res.SwapLostBytes)
				}
				checkSwapLedger(t, name, res)

				again, err := Run(tr, mkRC())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res, again) {
					t.Errorf("%s/kill=%g: re-run diverged", name, killRate)
				}

				prc := mkRC()
				prc.Parallel = 8
				par, err := Run(tr, prc)
				if err != nil {
					t.Fatal(err)
				}
				if !sameRun(res, par) {
					t.Errorf("%s/kill=%g: parallel-window run diverged from lockstep", name, killRate)
				}
			}
		}
	}
}

// TestMemoryReleaseAdmitsRecycledRequest runs a blocking-mode node with HBM
// for about one batch working set, so most completions start the next
// HBM-queued request synchronously from memRelease, while the completing
// request's context, process and record are still on the call stack. The
// node's admission desk must hand the queued request other objects: a
// reuse of the completing request's would corrupt its run. Two runs must
// complete every arrival and agree exactly.
func TestMemoryReleaseAdmitsRecycledRequest(t *testing.T) {
	tr := memTrace(t, 40000, 17)
	run := func() *Result {
		rc := testRunConfig(1, NewLeastLoaded())
		rc.Sys.GPU.MemSize = memTestTight
		res, err := Run(tr, rc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Completed != len(tr.Arrivals) || a.InFlight != 0 {
		t.Fatalf("completed %d of %d arrivals, %d in flight", a.Completed, len(tr.Arrivals), a.InFlight)
	}
	roomy := testRunConfig(1, NewLeastLoaded())
	roomy.Sys.GPU.MemSize = 1 << 30
	if r, err := Run(tr, roomy); err != nil || r.EndTime >= a.EndTime {
		t.Fatalf("memory never bound: roomy run ends at %v (err %v), tight at %v", r.EndTime, err, a.EndTime)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two runs of the same tight-HBM fleet differ")
	}
}
