package repro

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
)

func TestRunCluster(t *testing.T) {
	o := Options{
		Policy:    PolicyPPQ,
		Mechanism: MechanismAdaptive,
		Seed:      3,
		Arrivals:  openSpec(t),
		Nodes:     3,
		Dispatch:  DispatchJSQ,
	}
	res, err := RunCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted == 0 {
		t.Fatal("no requests admitted")
	}
	if res.Admitted != res.Completed+res.InFlight {
		t.Errorf("conservation violated: %d != %d + %d", res.Admitted, res.Completed, res.InFlight)
	}
	if res.Dispatcher != string(DispatchJSQ) {
		t.Errorf("dispatch = %q, want jsq", res.Dispatcher)
	}
	if len(res.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3", len(res.Nodes))
	}
	var adm, done int
	for i, n := range res.Nodes {
		adm += n.Admitted
		done += n.Completed
		if n.Admitted != n.Completed+n.InFlight {
			t.Errorf("node %d conservation violated", i)
		}
	}
	if adm != res.Admitted || done != res.Completed {
		t.Errorf("node sums (%d/%d) disagree with rollup (%d/%d)", adm, done, res.Admitted, res.Completed)
	}
	if len(res.Classes) != 2 || res.Classes[0].Name != "rt" || res.Classes[1].Name != "batch" {
		t.Fatalf("classes = %+v", res.Classes)
	}

	// Deterministic: an identical run is deeply equal.
	again, err := RunCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Error("identical cluster runs diverged")
	}
}

// TestRunClusterSingleNodeDefault pins that Nodes 0 means one machine and
// every dispatch policy degenerates gracefully there.
func TestRunClusterSingleNodeDefault(t *testing.T) {
	for _, d := range DispatchKinds() {
		o := Options{Policy: PolicyPPQ, Seed: 3, Arrivals: openSpec(t), Dispatch: d}
		res, err := RunCluster(o)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if len(res.Nodes) != 1 || res.Nodes[0].Admitted != res.Admitted {
			t.Errorf("%s: single-node default did not route everything to node 0", d)
		}
	}
}

// TestRunClusterExecutor pins the executor surfacing: ParWindow selects the
// parallel-window executor, a zero or negative value keeps the lockstep
// reference, Resilience forces the documented lockstep fallback — and the
// reported executor is the only field that may differ between the two.
func TestRunClusterExecutor(t *testing.T) {
	base := Options{
		Policy:    PolicyPPQ,
		Mechanism: MechanismAdaptive,
		Seed:      3,
		Arrivals:  openSpec(t),
		Nodes:     3,
		Dispatch:  DispatchJSQ,
	}
	run := func(mut func(*Options)) *ClusterResult {
		t.Helper()
		o := base
		if mut != nil {
			mut(&o)
		}
		res, err := RunCluster(o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	lock := run(nil)
	if lock.Executor != ExecutorLockstep {
		t.Fatalf("default run reports executor %q, want %q", lock.Executor, ExecutorLockstep)
	}
	par := run(func(o *Options) { o.ParWindow = 4 })
	if par.Executor != ExecutorParallelWindow {
		t.Fatalf("ParWindow=4 run reports executor %q, want %q", par.Executor, ExecutorParallelWindow)
	}
	par.Executor = lock.Executor
	if !reflect.DeepEqual(lock, par) {
		t.Error("parallel-window run differs from lockstep beyond the Executor field")
	}
	neg := run(func(o *Options) { o.ParWindow = -1 })
	if neg.Executor != ExecutorLockstep {
		t.Errorf("negative ParWindow reports executor %q, want lockstep", neg.Executor)
	}
	fallback := run(func(o *Options) {
		o.ParWindow = 4
		o.Resilience = &ResilienceSpec{Timeout: SimTime(time.Millisecond)}
	})
	if fallback.Executor != ExecutorLockstep {
		t.Errorf("ParWindow with Resilience reports executor %q, want the lockstep fallback", fallback.Executor)
	}
}

func TestRunClusterValidation(t *testing.T) {
	if _, err := RunCluster(Options{Policy: PolicyPPQ}); err == nil {
		t.Error("missing Arrivals accepted")
	}
	o := Options{Policy: PolicyPPQ, Arrivals: openSpec(t), Dispatch: "no-such-policy", Nodes: 2}
	if _, err := RunCluster(o); err == nil {
		t.Error("unknown dispatch policy accepted")
	}
	o = Options{Policy: PolicyPPQ, Arrivals: openSpec(t), Nodes: 100000}
	if _, err := RunCluster(o); err == nil {
		t.Error("absurd node count accepted")
	}
	// A positive ContextCapacity is enforced per node: a single slot cannot
	// hold this stream's overlapping requests.
	o = Options{Policy: PolicyPPQ, Arrivals: openSpec(t), Nodes: 1, ContextCapacity: 1}
	if _, err := RunCluster(o); err == nil {
		t.Error("over-admission beyond ContextCapacity accepted")
	}
}

func TestReadClusterTopology(t *testing.T) {
	o, err := ReadClusterTopology(strings.NewReader(`{"nodes": 4, "dispatch": "least-loaded"}`), Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if o.Nodes != 4 || o.Dispatch != DispatchLeastLoaded || o.Seed != 9 {
		t.Errorf("topology not applied: %+v", o)
	}
	if o.DispatchSeed != 0 || o.ContextCapacity != 0 {
		t.Errorf("absent topology fields overwrote options: %+v", o)
	}
	o, err = ReadClusterTopology(strings.NewReader(`{"nodes": 2}`), Options{Dispatch: DispatchJSQ})
	if err != nil {
		t.Fatal(err)
	}
	if o.Dispatch != DispatchJSQ {
		t.Errorf("topology without a dispatch field overwrote the preset policy: %+v", o)
	}
	o, err = ReadClusterTopology(
		strings.NewReader(`{"nodes": 2, "dispatch": "p2c", "seed": 42, "context_capacity": 16}`), Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if o.DispatchSeed != 42 || o.ContextCapacity != 16 || o.Seed != 9 {
		t.Errorf("topology seed/capacity not applied: %+v", o)
	}
	if _, err := ReadClusterTopology(strings.NewReader(`{"nodes": 0}`), Options{}); err == nil {
		t.Error("invalid topology accepted")
	}
	if _, err := ReadClusterTopology(strings.NewReader(`garbage`), Options{}); err == nil {
		t.Error("malformed JSON accepted")
	}
	t.Run("every stanza", testFullTopology)
}

// fullTopology carries every topology stanza: heterogeneous node types, an
// autoscale policy, a fault plan and all five resilience policies.
const fullTopology = `{
  "node_types": [{"count": 2, "sms": 10}, {"count": 1, "pcie_gen": 3, "slow_factor": 1.5, "hbm_bytes": 4294967296}],
  "dispatch": "least-loaded", "seed": 5, "context_capacity": 64,
  "autoscale": {"interval": 200000, "cooldown": 400000, "min": 2, "max": 5, "step": 1, "high_backlog": 4, "low_backlog": 1},
  "faults": {"seed": 11, "kill_rate": 1500, "downtime": 300000, "straggler_frac": 0.25, "slow_factor": 3},
  "resilience": {
    "seed": 13, "timeout": 800000,
    "retry": {"max_attempts": 4, "backoff_base": 20000, "backoff_max": 160000, "jitter_frac": 0.25, "budget": {"tokens": 10, "ratio": 0.1}},
    "hedge": {"quantile": 0.9, "min_obs": 8, "max_hedges": 2},
    "breaker": {"window": 400000, "error_rate": 0.5, "min_volume": 4, "cooldown": 200000, "probes": 2},
    "shed": {"per_node": 8, "queue": 16}
  }
}`

// fullTopologyOptions spells fullTopology out by hand on top of base.
func fullTopologyOptions(base Options) Options {
	us := func(n int) SimTime { return SimTime(time.Duration(n) * time.Microsecond) }
	o := base
	o.Nodes = 3
	o.NodeTypes = []ClusterNodeType{{Count: 2, SMs: 10}, {Count: 1, PCIeGen: 3, SlowFactor: 1.5, HBMBytes: 4 << 30}}
	o.Dispatch = DispatchLeastLoaded
	o.DispatchSeed = 5
	o.ContextCapacity = 64
	o.Autoscale = &AutoscalePolicy{Interval: us(200), Cooldown: us(400), Min: 2, Max: 5, Step: 1, HighBacklog: 4, LowBacklog: 1}
	o.Faults = &FaultPlan{Seed: 11, KillRate: 1500, Downtime: us(300), StragglerFrac: 0.25, SlowFactor: 3}
	o.Resilience = &ResilienceSpec{
		Seed:    13,
		Timeout: us(800),
		Retry: &RetryPolicy{MaxAttempts: 4, BackoffBase: us(20), BackoffMax: us(160), JitterFrac: 0.25,
			Budget: &RetryBudget{Tokens: 10, Ratio: 0.1}},
		Hedge:   &HedgePolicy{Quantile: 0.9, MinObs: 8, MaxHedges: 2},
		Breaker: &BreakerPolicy{Window: us(400), ErrorRate: 0.5, MinVolume: 4, Cooldown: us(200), Probes: 2},
		Shed:    &ShedPolicy{PerNode: 8, Queue: 16},
	}
	return o
}

// testFullTopology pins every topology stanza at the facade: the options hold
// exactly the specs cluster.ReadConfig decodes, equal the same options built
// by hand, and run to the same result.
func testFullTopology(t *testing.T) {
	base := Options{Policy: PolicyPPQ, Mechanism: MechanismAdaptive, Seed: 3, Arrivals: openSpec(t)}
	o, err := ReadClusterTopology(strings.NewReader(fullTopology), base)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.ReadConfig(strings.NewReader(fullTopology))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"node types", o.NodeTypes, c.NodeTypes},
		{"autoscale", o.Autoscale, c.Autoscale},
		{"faults", o.Faults, c.Faults},
		{"resilience", o.Resilience, c.Resilience},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Errorf("%s: options hold %+v, topology decodes %+v", f.name, f.got, f.want)
		}
	}
	hand := fullTopologyOptions(base)
	if !reflect.DeepEqual(o, hand) {
		t.Fatalf("topology options differ from the hand-built ones:\n got %+v\nwant %+v", o, hand)
	}
	fromFile, err := RunCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	byHand, err := RunCluster(hand)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromFile, byHand) {
		t.Error("RunCluster on the topology differs from RunCluster on the hand-built options")
	}
	if fromFile.Requests == 0 || fromFile.Autoscaler == "" {
		t.Errorf("topology run did not arm the lifecycle manager and autoscaler: %+v", fromFile)
	}
}

// TestRunClusterSharedSpecs pins that concurrent runs may share one set of
// spec pointers: RunCluster only reads them, so both runs agree and the
// specs are unchanged afterwards.
func TestRunClusterSharedSpecs(t *testing.T) {
	base := Options{Policy: PolicyPPQ, Mechanism: MechanismAdaptive, Seed: 3, Arrivals: openSpec(t)}
	o := fullTopologyOptions(base)
	var res [2]*ClusterResult
	var errs [2]error
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], errs[i] = RunCluster(o)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(res[0], res[1]) {
		t.Error("concurrent runs sharing spec pointers diverged")
	}
	fresh := fullTopologyOptions(base)
	if !reflect.DeepEqual(o.Resilience, fresh.Resilience) || !reflect.DeepEqual(o.Faults, fresh.Faults) ||
		!reflect.DeepEqual(o.Autoscale, fresh.Autoscale) || !reflect.DeepEqual(o.NodeTypes, fresh.NodeTypes) {
		t.Error("RunCluster mutated a shared spec")
	}
}
