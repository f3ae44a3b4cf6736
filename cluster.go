package repro

import (
	"fmt"
	"io"
	"time"

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

// Execution strategies reported by ClusterResult.Executor.
const (
	// ExecutorLockstep steps events one at a time: the reference.
	ExecutorLockstep = cluster.ExecutorLockstep
	// ExecutorParallelWindow runs arrivals and node events in parallel-in-time
	// windows; it produces byte-identical results to lockstep at any worker
	// count.
	ExecutorParallelWindow = cluster.ExecutorParallelWindow
)

// DispatchKinds lists the dispatch policies in report order.
func DispatchKinds() []DispatchKind { return cluster.Kinds() }

// NodeReport is one simulated GPU slot's outcome in a cluster run.
type NodeReport struct {
	// Node is the GPU's index in the cluster.
	Node int
	// Admitted/Completed/Lost/InFlight/Missed are dispatch-attempt counts on
	// this GPU (Lost counts attempts destroyed by kills of this GPU).
	Admitted, Completed, Lost, InFlight, Missed int
	// State is the GPU's lifecycle state at the end ("up", "draining",
	// "down", "retired").
	State string
	// Incarnations counts the machines that occupied this slot (1 + kills
	// survived).
	Incarnations int
	// TimeScale is the final incarnation's service-time multiplier (>1 =
	// straggler or slow node type).
	TimeScale float64
	// UpTime is how long the slot was serving (Up or Draining).
	UpTime time.Duration
	// Utilization is this GPU's SM busy fraction.
	Utilization float64
	// Preemptions counts completed SM preemptions on this GPU.
	Preemptions int
	// HBM is the GPU's device-memory capacity in bytes. Spills counts
	// requests whose working set did not fit at admission and swapped out to
	// the host; SwapIns counts completed swap-back-ins (both zero without
	// Options.Swap — blocked requests just wait); the byte fields are the
	// matching traffic (lost = destroyed by kills before the swap-in).
	HBM                                      int64
	Spills, SwapIns                          int
	SwapOutBytes, SwapInBytes, SwapLostBytes int64
}

// ClusterResult reports a cluster simulation: the fleet-wide rollup (same
// shape as OpenResult) plus each GPU's individual outcome.
type ClusterResult struct {
	// Dispatch is the placement policy that produced this result.
	Dispatch DispatchKind
	// Autoscale names the scaling policy ("" = fixed fleet).
	Autoscale string
	// Executor names the execution strategy the run used: "parallel-window"
	// when Options.ParWindow engaged the parallel-in-time loop, "lockstep"
	// for the event-by-event reference — including when a positive ParWindow
	// fell back. The cluster layer falls back in three cases: the run armed
	// Options.Resilience (the lifecycle manager couples nodes through the
	// control engine mid-window), the dispatcher does not qualify for the
	// latency-floor lookahead (it neither declares a merge-reconstructible
	// read set nor is load-oblivious), or the fleet's PCIe dispatch floor is
	// zero. Every DispatchKind qualifies and every PCIe generation keeps a
	// positive floor, so through Options only Resilience falls back. The two
	// strategies produce byte-identical results; this field only reports
	// which one ran.
	Executor string
	// Classes lists fleet-wide per-class outcomes in spec order (per-node
	// counters summed, latency sketches merged).
	Classes []ClassReport
	// Nodes lists per-GPU outcomes in node order.
	Nodes []NodeReport
	// Admitted = Completed + Lost + InFlight across the fleet
	// (conservation). A request re-dispatched after a kill is a new
	// admission, so Admitted counts attempts.
	Admitted, Completed, Lost, InFlight, Missed int
	// EndTime is the virtual time the simulation stopped.
	EndTime time.Duration
	// Utilization is the mean SM busy fraction across GPUs.
	Utilization float64
	// Goodput is fleet-wide SLO-compliant completions per simulated second.
	Goodput float64
	// NodeSeconds is the capacity the run consumed: total serving GPU time
	// in simulated seconds — the cost axis autoscaling trades against SLO
	// attainment.
	NodeSeconds float64
	// LostWork is in-flight virtual time destroyed by kills.
	LostWork time.Duration
	// ScaleUps/Drains/Kills/Restarts count fleet control events.
	ScaleUps, Drains, Kills, Restarts int
	// Preemptions counts completed SM preemptions across the fleet.
	Preemptions int
	// Spills/SwapIns and the swap byte flows sum per-GPU swap activity (all
	// zero without Options.Swap and with every working set resident).
	Spills, SwapIns                          int
	SwapOutBytes, SwapInBytes, SwapLostBytes int64

	// The request-lifecycle fields below are filled only when
	// Options.Resilience armed the lifecycle manager; they stay zero
	// otherwise. Requests counts trace arrivals; each resolves exactly once
	// as ReqCompleted, Dropped (retries or budget exhausted), Shed (refused
	// by admission control) or remains in ReqInFlight.
	Requests, ReqCompleted, Dropped, Shed, ReqInFlight int
	// TimedOut and Canceled count abandoned attempts (per-attempt deadline,
	// hedge-race losers); Retries and Hedges count re-dispatched and hedged
	// attempts; Rejected counts attempts refused by a full GPU (included in
	// Lost); BreakerTrips counts circuit breakers opening.
	TimedOut, Canceled, Retries, Hedges, Rejected, BreakerTrips int
}

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
	o.NodeTypes = c.Types()
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
		spec.Horizon = o.WarmStart
		spec.MaxArrivals = 0
	}
	wat, err := spec.Synthesize(o)
	if err != nil {
		return nil, err
	}
	wc, err := cluster.New(wat.t, crc)
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
// the run unfolds. Everything runs in deterministic lockstep (per-GPU event
// engines plus a fleet control engine merged by timestamp), so results are
// byte-identical across runs and worker counts. Each GPU runs its own
// instance of the configured scheduling policy and preemption mechanism; a
// completed request retires on the GPU that ran it.
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
	cl, err := cluster.New(at.t, crc)
	if err != nil {
		return nil, err
	}
	res, err := cl.Run()
	if err != nil {
		return nil, err
	}

	out := &ClusterResult{
		Dispatch:    DispatchKind(res.Dispatcher),
		Autoscale:   res.Autoscaler,
		Executor:    cl.Executor(),
		Admitted:    res.Admitted,
		Completed:   res.Completed,
		Lost:        res.Lost,
		InFlight:    res.InFlight,
		Missed:      res.Missed,
		EndTime:     time.Duration(res.EndTime),
		Utilization: res.Utilization,
		Goodput:     res.Goodput,
		NodeSeconds: res.NodeSeconds,
		LostWork:    time.Duration(res.LostWork),
		ScaleUps:    res.ScaleUps,
		Drains:      res.Drains,
		Kills:       res.Kills,
		Restarts:    res.Restarts,
		Preemptions: res.Stats.PreemptionsDone,

		Spills:        res.Spills,
		SwapIns:       res.SwapIns,
		SwapOutBytes:  res.SwapOutBytes,
		SwapInBytes:   res.SwapInBytes,
		SwapLostBytes: res.SwapLostBytes,

		Requests:     res.Requests,
		ReqCompleted: res.ReqCompleted,
		Dropped:      res.Dropped,
		Shed:         res.Shed,
		ReqInFlight:  res.ReqInFlight,
		TimedOut:     res.TimedOut,
		Canceled:     res.Canceled,
		Retries:      res.Retries,
		Hedges:       res.Hedges,
		Rejected:     res.Rejected,
		BreakerTrips: res.BreakerTrips,
	}
	for i := range res.Classes {
		out.Classes = append(out.Classes, classReport(&res.Classes[i]))
	}
	for i := range res.Nodes {
		n := &res.Nodes[i]
		out.Nodes = append(out.Nodes, NodeReport{
			Node:         i,
			Admitted:     n.Admitted,
			Completed:    n.Completed,
			Lost:         n.Lost,
			InFlight:     n.InFlight,
			Missed:       n.Missed,
			State:        n.State.String(),
			Incarnations: n.Incarnations,
			TimeScale:    n.TimeScale,
			UpTime:       time.Duration(n.UpTime),
			Utilization:  n.Utilization,
			Preemptions:  n.Stats.PreemptionsDone,

			HBM:           n.HBM,
			Spills:        n.Spills,
			SwapIns:       n.SwapIns,
			SwapOutBytes:  n.SwapOutBytes,
			SwapInBytes:   n.SwapInBytes,
			SwapLostBytes: n.SwapLostBytes,
		})
	}
	return out, nil
}
