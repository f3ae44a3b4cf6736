package repro

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/resilience"
	"repro/internal/rng"
	"repro/internal/sim"
)

// The fleet configuration types are aliases of the internal specs, which are
// their single declaration: field docs, defaults, Validate methods and the
// JSON tags that make up the topology schema (see ReadClusterTopology) live
// in internal/cluster and internal/resilience. Their duration fields are
// SimTime; convert a time.Duration with SimTime(d).
type (
	// SimTime is a simulated duration in integer nanoseconds. It counts the
	// same unit as time.Duration, so SimTime(d) converts exactly.
	SimTime = sim.Time
	// DispatchKind selects a cluster dispatch policy: how RunCluster places
	// each arriving request on one of the simulated GPUs.
	DispatchKind = cluster.Kind
	// ClusterNodeType describes one slice of a heterogeneous fleet: Count
	// GPUs sharing hardware overrides of the base machine.
	ClusterNodeType = cluster.NodeType
	// AutoscalePolicy configures RunCluster's step autoscaler.
	AutoscalePolicy = cluster.StepConfig
	// FaultPlan configures RunCluster's seeded fault injector: Poisson GPU
	// kills and restarts, plus per-incarnation straggler draws.
	FaultPlan = cluster.FaultSpec
	// ResilienceSpec configures RunCluster's per-request lifecycle manager:
	// attempt timeouts, budgeted backoff-with-jitter retries, hedged
	// requests, per-GPU circuit breakers and admission-control load
	// shedding. A nil or zero-valued spec leaves the run bit-for-bit on the
	// plain fleet path.
	ResilienceSpec = resilience.Spec
	// RetryPolicy governs re-dispatch of failed attempts.
	RetryPolicy = resilience.RetryPolicy
	// RetryBudget is a per-class retry token bucket.
	RetryBudget = resilience.Budget
	// HedgePolicy races a backup attempt for slow requests.
	HedgePolicy = resilience.HedgePolicy
	// BreakerPolicy parameterizes the per-GPU circuit breaker.
	BreakerPolicy = resilience.BreakerPolicy
	// ShedPolicy is admission control: per-class live-request ceilings, a
	// bounded overflow queue, and shedding past it.
	ShedPolicy = resilience.ShedPolicy
	// ClusterResult reports a cluster simulation: the fleet-wide rollup plus
	// each GPU's outcome in Nodes, indexed by GPU number. Dispatcher and
	// Executor name the placement policy and the execution strategy that
	// ran; Stats.PreemptionsDone counts completed SM preemptions.
	ClusterResult = cluster.Result
	// NodeReport is one simulated GPU slot's outcome in a cluster run.
	NodeReport = cluster.NodeResult
)

// Available dispatch policies.
const (
	// DispatchRoundRobin cycles through the GPUs in order, ignoring load.
	DispatchRoundRobin = cluster.KindRoundRobin
	// DispatchJSQ joins the shortest queue (fewest outstanding requests).
	DispatchJSQ = cluster.KindJSQ
	// DispatchLeastLoaded minimizes predicted backlog: outstanding requests
	// weighted by an online per-application service-time estimate.
	DispatchLeastLoaded = cluster.KindLeastLoaded
	// DispatchClassAffinity pins each service class to a GPU subset and
	// joins the shortest queue within it.
	DispatchClassAffinity = cluster.KindClassAffinity
	// DispatchPowerOfTwo samples two GPUs with a seeded RNG and joins the
	// shorter queue of the two.
	DispatchPowerOfTwo = cluster.KindPowerOfTwo
	// DispatchLeastLoadedFits is least-loaded made memory-aware: least
	// predicted backlog among the GPUs whose free HBM fits the request's
	// working set, falling back to least projected oversubscription when
	// nothing fits.
	DispatchLeastLoadedFits = cluster.KindLeastLoadedFits
)

// Execution strategies reported by ClusterResult.Executor, which describes
// both.
const (
	ExecutorLockstep       = cluster.ExecutorLockstep
	ExecutorParallelWindow = cluster.ExecutorParallelWindow
)

// DispatchKinds lists the dispatch policies in report order.
func DispatchKinds() []DispatchKind { return cluster.Kinds() }

// ReadClusterTopology parses a cluster topology (GPU count or heterogeneous
// node types, dispatch policy, optional dispatch seed, per-node context
// capacity, autoscale policy, fault plan and resilience spec) from JSON and
// applies the fields it carries to a copy of the options — the file-based
// alternative to setting Options.Nodes and friends directly. The schema is
// the JSON tags of the fleet types; durations are integer nanoseconds. The
// fleet size is always applied (a topology must carry it); fields absent
// from the file leave the corresponding options untouched.
func ReadClusterTopology(r io.Reader, o Options) (Options, error) {
	c, err := cluster.ReadConfig(r)
	if err != nil {
		return o, err
	}
	o.Nodes = c.StartNodes()
	o.NodeTypes = c.NodeTypes
	if c.Dispatch != "" {
		o.Dispatch = c.Dispatch
	}
	if c.Seed != 0 {
		o.DispatchSeed = c.Seed
	}
	if c.ContextCapacity != 0 {
		o.ContextCapacity = c.ContextCapacity
	}
	if c.Autoscale != nil {
		o.Autoscale = c.Autoscale
	}
	if c.Faults != nil {
		o.Faults = c.Faults
	}
	if c.Resilience != nil {
		o.Resilience = c.Resilience
	}
	return o, nil
}

// warmSeedTag namespaces the warmup stream's seed derivation, so warm-start
// traffic never duplicates the measured stream.
const warmSeedTag = 0x3A47

// clusterWarmth plays a warmup stream through a throwaway fleet and returns
// the dispatcher's learned state for the measured run. A synthetic spec
// warms up on a re-seeded stream truncated to Options.WarmStart; a replayed
// trace warms up on the trace itself.
func clusterWarmth(o Options, crc cluster.RunConfig) (*cluster.Warmth, error) {
	spec := *o.Arrivals
	if spec.Trace == nil {
		seed := spec.Seed
		if seed == 0 {
			seed = o.Seed
		}
		spec.Seed = rng.SeedFrom(seed, warmSeedTag)
		spec.Horizon = SimTime(o.WarmStart)
		spec.MaxArrivals = 0
	}
	wat, err := spec.Synthesize(o)
	if err != nil {
		return nil, err
	}
	wc, err := cluster.New(wat, crc)
	if err != nil {
		return nil, err
	}
	if _, err := wc.Run(); err != nil {
		return nil, fmt.Errorf("repro: warm-start run: %w", err)
	}
	w, err := wc.Warmth()
	if err != nil {
		return nil, fmt.Errorf("repro: warm-start: %w", err)
	}
	return w, nil
}

// RunCluster simulates the open-system workload described by o.Arrivals on a
// fleet of simulated GPUs behind the o.Dispatch placement policy. The fleet
// starts as o.Nodes identical GPUs (or the heterogeneous o.NodeTypes) and —
// when o.Autoscale or o.Faults is set — grows, drains, fails and recovers as
// the run unfolds. Either executor (see ClusterResult.Executor) gives
// byte-identical results across runs and worker counts. Each GPU runs its
// own instance of the configured scheduling policy and preemption mechanism;
// a completed request retires on the GPU that ran it.
func RunCluster(o Options) (*ClusterResult, error) {
	o = o.fill()
	if o.Arrivals == nil {
		return nil, fmt.Errorf("repro: RunCluster needs Options.Arrivals")
	}
	nodes := o.Nodes
	if nodes <= 0 && len(o.NodeTypes) == 0 {
		nodes = 1
	}
	dispSeed := o.DispatchSeed
	if dispSeed == 0 {
		dispSeed = o.Seed
	}
	at, err := o.Arrivals.Synthesize(o)
	if err != nil {
		return nil, err
	}
	rc, err := o.runConfig()
	if err != nil {
		return nil, err
	}
	// Dispatchers and autoscalers are stateful and single-use, so the
	// warm-start path below needs a fresh RunConfig per cluster run.
	newCRC := func() (cluster.RunConfig, error) {
		disp, err := cluster.NewDispatcher(o.Dispatch, dispSeed)
		if err != nil {
			return cluster.RunConfig{}, err
		}
		crc := cluster.RunConfig{
			Sys:        rc.Sys,
			Nodes:      nodes,
			NodeTypes:  o.NodeTypes,
			Dispatcher: disp,
			Policy:     rc.Policy,
			Mechanism:  rc.Mechanism,
			MaxSimTime: rc.MaxSimTime,
			Faults:     o.Faults,
			Resilience: o.Resilience,
			Parallel:   o.ParWindow,
			HBM:        o.HBM,
			Swap:       o.Swap,
		}
		if o.Autoscale != nil {
			if crc.Autoscale, err = cluster.NewStepAutoscaler(*o.Autoscale); err != nil {
				return cluster.RunConfig{}, err
			}
		}
		return crc, nil
	}
	crc, err := newCRC()
	if err != nil {
		return nil, err
	}
	if o.WarmStart > 0 {
		w, err := clusterWarmth(o, crc)
		if err != nil {
			return nil, err
		}
		if crc, err = newCRC(); err != nil {
			return nil, err
		}
		crc.Warmth = w
	}
	cl, err := cluster.New(at, crc)
	if err != nil {
		return nil, err
	}
	return cl.Run()
}
