package repro

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRunCluster(t *testing.T) {
	o := Options{
		Policy:    PolicyPPQ,
		Mechanism: MechanismAdaptive,
		Seed:      3,
		Arrivals:  openSpec(t),
		Cluster:   ClusterConfig{Nodes: 3, Dispatch: DispatchJSQ},
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
		o := Options{Policy: PolicyPPQ, Seed: 3, Arrivals: openSpec(t), Cluster: ClusterConfig{Dispatch: d}}
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
		Cluster:   ClusterConfig{Nodes: 3, Dispatch: DispatchJSQ},
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
		o.Cluster.Resilience = &ResilienceSpec{Timeout: SimTime(time.Millisecond)}
	})
	if fallback.Executor != ExecutorLockstep {
		t.Errorf("ParWindow with Resilience reports executor %q, want the lockstep fallback", fallback.Executor)
	}
}

func TestRunClusterValidation(t *testing.T) {
	if _, err := RunCluster(Options{Policy: PolicyPPQ}); err == nil {
		t.Error("missing Arrivals accepted")
	}
	o := Options{Policy: PolicyPPQ, Arrivals: openSpec(t), Cluster: ClusterConfig{Nodes: 2, Dispatch: "no-such-policy"}}
	if _, err := RunCluster(o); err == nil {
		t.Error("unknown dispatch policy accepted")
	}
	o = Options{Policy: PolicyPPQ, Arrivals: openSpec(t), Cluster: ClusterConfig{Nodes: 100000}}
	if _, err := RunCluster(o); err == nil {
		t.Error("absurd node count accepted")
	}
	// A positive ContextCapacity is enforced per node: a single slot cannot
	// hold this stream's overlapping requests.
	o = Options{Policy: PolicyPPQ, Arrivals: openSpec(t), Cluster: ClusterConfig{Nodes: 1, ContextCapacity: 1}}
	if _, err := RunCluster(o); err == nil {
		t.Error("over-admission beyond ContextCapacity accepted")
	}
}

// TestReadClusterConfig pins the file form of Options.Cluster: an invalid or
// malformed file is rejected, and a topology carrying every stanza decodes
// to the config built by hand and arms every plan it names.
func TestReadClusterConfig(t *testing.T) {
	if _, err := ReadClusterConfig(strings.NewReader(`{"nodes": 0}`)); err == nil {
		t.Error("invalid topology accepted")
	}
	if _, err := ReadClusterConfig(strings.NewReader(`garbage`)); err == nil {
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

// fullTopologyConfig spells fullTopology out by hand.
func fullTopologyConfig() ClusterConfig {
	us := func(n int) SimTime { return SimTime(time.Duration(n) * time.Microsecond) }
	return ClusterConfig{
		NodeTypes:       []ClusterNodeType{{Count: 2, SMs: 10}, {Count: 1, PCIeGen: 3, SlowFactor: 1.5, HBMBytes: 4 << 30}},
		Dispatch:        DispatchLeastLoaded,
		Seed:            5,
		ContextCapacity: 64,
		Autoscale:       &AutoscalePolicy{Interval: us(200), Cooldown: us(400), Min: 2, Max: 5, Step: 1, HighBacklog: 4, LowBacklog: 1},
		Faults:          &FaultPlan{Seed: 11, KillRate: 1500, Downtime: us(300), StragglerFrac: 0.25, SlowFactor: 3},
		Resilience: &ResilienceSpec{
			Seed:    13,
			Timeout: us(800),
			Retry: &RetryPolicy{MaxAttempts: 4, BackoffBase: us(20), BackoffMax: us(160), JitterFrac: 0.25,
				Budget: &RetryBudget{Tokens: 10, Ratio: 0.1}},
			Hedge:   &HedgePolicy{Quantile: 0.9, MinObs: 8, MaxHedges: 2},
			Breaker: &BreakerPolicy{Window: us(400), ErrorRate: 0.5, MinVolume: 4, Cooldown: us(200), Probes: 2},
			Shed:    &ShedPolicy{PerNode: 8, Queue: 16},
		},
	}
}

// testFullTopology pins every topology stanza at the facade: the file
// decodes to exactly the hand-built config, and a run on it arms the
// lifecycle manager and the autoscaler.
func testFullTopology(t *testing.T) {
	c, err := ReadClusterConfig(strings.NewReader(fullTopology))
	if err != nil {
		t.Fatal(err)
	}
	if hand := fullTopologyConfig(); !reflect.DeepEqual(c, hand) {
		t.Fatalf("topology decodes differently from the hand-built config:\n got %+v\nwant %+v", c, hand)
	}
	res, err := RunCluster(Options{Policy: PolicyPPQ, Mechanism: MechanismAdaptive, Seed: 3, Arrivals: openSpec(t), Cluster: c})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) < 3 || res.Requests == 0 || res.Autoscaler == "" {
		t.Errorf("topology run did not build the typed fleet and arm the lifecycle manager and autoscaler: %+v", res)
	}
}

// TestRunClusterSharedSpecs pins that concurrent runs may share one set of
// spec pointers: RunCluster only reads them, so both runs agree and the
// specs are unchanged afterwards.
func TestRunClusterSharedSpecs(t *testing.T) {
	o := Options{Policy: PolicyPPQ, Mechanism: MechanismAdaptive, Seed: 3, Arrivals: openSpec(t), Cluster: fullTopologyConfig()}
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
	if !reflect.DeepEqual(o.Cluster, fullTopologyConfig()) {
		t.Error("RunCluster mutated a shared spec")
	}
}
