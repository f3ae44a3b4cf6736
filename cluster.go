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

// DispatchKind selects a cluster dispatch policy: how RunCluster places each
// arriving request on one of the simulated GPUs.
type DispatchKind string

// Available dispatch policies.
const (
	// DispatchRoundRobin cycles through the GPUs in order, ignoring load.
	DispatchRoundRobin DispatchKind = DispatchKind(cluster.KindRoundRobin)
	// DispatchJSQ joins the shortest queue (fewest outstanding requests).
	DispatchJSQ DispatchKind = DispatchKind(cluster.KindJSQ)
	// DispatchLeastLoaded minimizes predicted backlog: outstanding requests
	// weighted by an online per-application service-time estimate.
	DispatchLeastLoaded DispatchKind = DispatchKind(cluster.KindLeastLoaded)
	// DispatchClassAffinity pins each service class to a GPU subset and
	// joins the shortest queue within it.
	DispatchClassAffinity DispatchKind = DispatchKind(cluster.KindClassAffinity)
	// DispatchPowerOfTwo samples two GPUs with a seeded RNG and joins the
	// shorter queue of the two.
	DispatchPowerOfTwo DispatchKind = DispatchKind(cluster.KindPowerOfTwo)
	// DispatchLeastLoadedFits is least-loaded made memory-aware: least
	// predicted backlog among the GPUs whose free HBM fits the request's
	// working set, falling back to least projected oversubscription when
	// nothing fits.
	DispatchLeastLoadedFits DispatchKind = DispatchKind(cluster.KindLeastLoadedFits)
)

// Execution strategies reported by ClusterResult.Executor.
const (
	// ExecutorLockstep is the event-by-event reference loop.
	ExecutorLockstep = cluster.ExecutorLockstep
	// ExecutorParallelWindow is the parallel-in-time window loop; it
	// produces byte-identical results to lockstep at any worker count.
	ExecutorParallelWindow = cluster.ExecutorParallelWindow
)

// DispatchKinds lists the dispatch policies in report order.
func DispatchKinds() []DispatchKind {
	kinds := cluster.Kinds()
	out := make([]DispatchKind, len(kinds))
	for i, k := range kinds {
		out[i] = DispatchKind(k)
	}
	return out
}

// ClusterNodeType describes one slice of a heterogeneous fleet: Count GPUs
// sharing hardware overrides of the base machine. Zero-valued fields keep the
// base value.
type ClusterNodeType struct {
	// Count is how many GPUs of this type the fleet starts with.
	Count int
	// SMs overrides the GPU's SM count (0 = base machine).
	SMs int
	// PCIeGen overrides the PCIe generation, 1..5; the base machine's
	// bandwidth is generation 2 and each generation doubles it (0 = base).
	PCIeGen int
	// SlowFactor multiplies the type's service time (0 = nominal speed).
	SlowFactor float64
	// HBMBytes overrides the type's device-memory capacity (0 = the base
	// machine's, which Options.HBM may itself override).
	HBMBytes int64
}

// AutoscalePolicy configures RunCluster's step autoscaler: every Interval it
// inspects the watched class's rolling window (completions since the last
// tick) and the fleet backlog, scales up by Step when a high-water signal
// fires, scales down by Step when the fleet idles below the low-water
// backlog, and respects Cooldown between actions. A zero threshold disables
// that signal.
type AutoscalePolicy struct {
	// Interval is the decision period. Default 250µs.
	Interval time.Duration
	// Cooldown is the minimum time between scale actions. Default Interval.
	Cooldown time.Duration
	// Min and Max bound the Up-GPU count. Defaults 1 and the cluster's
	// MaxNodes.
	Min, Max int
	// Step is the GPU-count delta per action. Default 1.
	Step int
	// Class is the arrival-class index the latency thresholds watch.
	Class int
	// HighP99 scales up when the window completion-latency p99 exceeds it.
	HighP99 time.Duration
	// HighMiss scales up when the window deadline-miss fraction exceeds it.
	HighMiss float64
	// HighBacklog scales up when fleet in-flight exceeds it per Up GPU;
	// LowBacklog scales down when fleet in-flight falls below it per Up GPU.
	HighBacklog, LowBacklog int
}

// FaultPlan configures RunCluster's seeded fault injector: Poisson node
// kills (in-flight requests are lost and re-dispatched, the node restarts
// after Downtime), plus per-incarnation straggler draws.
type FaultPlan struct {
	// Seed drives the injector; 0 derives one from Options.Seed.
	Seed uint64
	// KillRate is the mean GPU kills per simulated second (0 = none).
	KillRate float64
	// Downtime is how long a killed GPU stays down. Default 500µs.
	Downtime time.Duration
	// StragglerFrac is the probability each GPU incarnation serves
	// SlowFactor times slower (default factor 2).
	StragglerFrac float64
	SlowFactor    float64
}

// ResilienceSpec configures RunCluster's per-request lifecycle manager:
// attempt timeouts, budgeted backoff-with-jitter retries, hedged requests,
// per-GPU circuit breakers and admission-control load shedding. Each policy
// arms independently; a nil or zero-valued spec leaves the run bit-for-bit on
// the plain fleet path.
type ResilienceSpec struct {
	// Seed drives the retry-jitter stream; 0 derives one from Options.Seed.
	Seed uint64
	// Timeout is the per-attempt deadline: an attempt still running Timeout
	// after its dispatch is abandoned and the request moves to the retry
	// policy. 0 disables timeouts.
	Timeout time.Duration
	// Retry, when non-nil, re-dispatches attempts abandoned by timeout or
	// destroyed by a GPU kill; without it a failed request is dropped.
	Retry *RetryPolicy
	// Hedge, when non-nil, races a backup attempt on another GPU when the
	// first outlives the class's observed latency quantile.
	Hedge *HedgePolicy
	// Breaker, when non-nil, arms a circuit breaker per GPU slot: tripped
	// GPUs are masked from dispatch until a half-open probe succeeds.
	Breaker *BreakerPolicy
	// Shed, when non-nil, bounds per-class admission and sheds best-effort
	// overflow before it reaches a GPU; the highest-priority class is exempt.
	Shed *ShedPolicy
}

// RetryPolicy governs re-dispatch of failed attempts.
type RetryPolicy struct {
	// MaxAttempts bounds attempts per request, first dispatch included
	// (0 = unlimited — the naive retry-storm baseline).
	MaxAttempts int
	// BackoffBase is the delay before the first retry, doubling each retry
	// up to BackoffMax (default 64 × base). 0 retries immediately.
	BackoffBase, BackoffMax time.Duration
	// JitterFrac spreads each delay uniformly over [1-JitterFrac, 1] × delay
	// (default 0.5 when backoff is armed).
	JitterFrac float64
	// Budget, when non-nil, caps fleet-wide retry volume per class; a retry
	// with no token drops the request.
	Budget *RetryBudget
}

// RetryBudget is a per-class retry token bucket: each fresh admission refills
// Ratio tokens (capped at Tokens), each retry spends one. With Ratio 0.1 the
// fleet amplifies offered load by at most 10% no matter how hard it fails.
type RetryBudget struct {
	// Tokens is the bucket capacity and starting balance. Default 10.
	Tokens float64
	// Ratio is the tokens refilled per fresh admission. Default 0.1.
	Ratio float64
}

// HedgePolicy races a backup attempt for slow requests.
type HedgePolicy struct {
	// Quantile of observed class completion latency at which the hedge
	// fires. Default 0.95.
	Quantile float64
	// MinObs is how many class completions must exist before hedging arms.
	// Default 16.
	MinObs int
	// MaxHedges bounds backup attempts per request. Default 1.
	MaxHedges int
}

// BreakerPolicy parameterizes the per-GPU circuit breaker.
type BreakerPolicy struct {
	// Window is the rolling outcome window. Default 500µs.
	Window time.Duration
	// ErrorRate is the windowed failure fraction that trips the breaker
	// (given MinVolume observations). Defaults 0.5 and 8.
	ErrorRate float64
	MinVolume int
	// Cooldown is how long a tripped breaker stays open before letting
	// Probes trial requests through. Defaults Window and 1.
	Cooldown time.Duration
	Probes   int
}

// ShedPolicy is admission control: per-class live-request ceilings scaled by
// the Up-GPU count, a bounded FIFO overflow queue, and shedding past it.
type ShedPolicy struct {
	// PerNode is the per-class live-request ceiling per Up GPU. Default 8.
	PerNode int
	// Queue is the per-class admission-queue depth; arrivals past it are
	// shed. Default 0 (shed at the ceiling).
	Queue int
}

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
	// control engine mid-window), the dispatcher declares neither arrival
	// protocol (pre-sharding or latency-floor lookahead), or the fleet's
	// PCIe dispatch floor is zero. Every DispatchKind declares a protocol and
	// every PCIe generation keeps a positive floor, so through Options only
	// Resilience falls back. The two strategies produce byte-identical
	// results; this field only reports which one ran.
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

// lower converts the public autoscale policy to the internal step config.
func (p *AutoscalePolicy) lower() cluster.StepConfig {
	return cluster.StepConfig{
		Interval:    sim.Time(p.Interval.Nanoseconds()),
		Cooldown:    sim.Time(p.Cooldown.Nanoseconds()),
		Min:         p.Min,
		Max:         p.Max,
		Step:        p.Step,
		Class:       p.Class,
		HighP99:     sim.Time(p.HighP99.Nanoseconds()),
		HighMiss:    p.HighMiss,
		HighBacklog: p.HighBacklog,
		LowBacklog:  p.LowBacklog,
	}
}

// lower converts the public resilience spec to the internal one.
func (p *ResilienceSpec) lower() *resilience.Spec {
	s := &resilience.Spec{
		Seed:    p.Seed,
		Timeout: sim.Time(p.Timeout.Nanoseconds()),
	}
	if p.Retry != nil {
		s.Retry = &resilience.RetryPolicy{
			MaxAttempts: p.Retry.MaxAttempts,
			BackoffBase: sim.Time(p.Retry.BackoffBase.Nanoseconds()),
			BackoffMax:  sim.Time(p.Retry.BackoffMax.Nanoseconds()),
			JitterFrac:  p.Retry.JitterFrac,
		}
		if p.Retry.Budget != nil {
			s.Retry.Budget = &resilience.Budget{
				Tokens: p.Retry.Budget.Tokens,
				Ratio:  p.Retry.Budget.Ratio,
			}
		}
	}
	if p.Hedge != nil {
		s.Hedge = &resilience.HedgePolicy{
			Quantile:  p.Hedge.Quantile,
			MinObs:    p.Hedge.MinObs,
			MaxHedges: p.Hedge.MaxHedges,
		}
	}
	if p.Breaker != nil {
		s.Breaker = &resilience.BreakerPolicy{
			Window:    sim.Time(p.Breaker.Window.Nanoseconds()),
			ErrorRate: p.Breaker.ErrorRate,
			MinVolume: p.Breaker.MinVolume,
			Cooldown:  sim.Time(p.Breaker.Cooldown.Nanoseconds()),
			Probes:    p.Breaker.Probes,
		}
	}
	if p.Shed != nil {
		s.Shed = &resilience.ShedPolicy{PerNode: p.Shed.PerNode, Queue: p.Shed.Queue}
	}
	return s
}

// liftResilience converts the internal resilience spec to the public one.
func liftResilience(s *resilience.Spec) *ResilienceSpec {
	p := &ResilienceSpec{
		Seed:    s.Seed,
		Timeout: time.Duration(s.Timeout),
	}
	if s.Retry != nil {
		p.Retry = &RetryPolicy{
			MaxAttempts: s.Retry.MaxAttempts,
			BackoffBase: time.Duration(s.Retry.BackoffBase),
			BackoffMax:  time.Duration(s.Retry.BackoffMax),
			JitterFrac:  s.Retry.JitterFrac,
		}
		if s.Retry.Budget != nil {
			p.Retry.Budget = &RetryBudget{Tokens: s.Retry.Budget.Tokens, Ratio: s.Retry.Budget.Ratio}
		}
	}
	if s.Hedge != nil {
		p.Hedge = &HedgePolicy{Quantile: s.Hedge.Quantile, MinObs: s.Hedge.MinObs, MaxHedges: s.Hedge.MaxHedges}
	}
	if s.Breaker != nil {
		p.Breaker = &BreakerPolicy{
			Window:    time.Duration(s.Breaker.Window),
			ErrorRate: s.Breaker.ErrorRate,
			MinVolume: s.Breaker.MinVolume,
			Cooldown:  time.Duration(s.Breaker.Cooldown),
			Probes:    s.Breaker.Probes,
		}
	}
	if s.Shed != nil {
		p.Shed = &ShedPolicy{PerNode: s.Shed.PerNode, Queue: s.Shed.Queue}
	}
	return p
}

// lower converts the public fault plan to the internal spec.
func (p *FaultPlan) lower() *cluster.FaultSpec {
	return &cluster.FaultSpec{
		Seed:          p.Seed,
		KillRate:      p.KillRate,
		Downtime:      sim.Time(p.Downtime.Nanoseconds()),
		StragglerFrac: p.StragglerFrac,
		SlowFactor:    p.SlowFactor,
	}
}

// ReadClusterTopology parses a cluster topology (GPU count or heterogeneous
// node types, dispatch policy, optional dispatch seed, per-node context
// capacity, autoscale policy and fault plan) from JSON and applies the
// fields it carries to a copy of the options — the file-based alternative to
// setting Options.Nodes and friends directly. The fleet size is always
// applied (a topology must carry it); fields absent from the file leave the
// corresponding options untouched.
func ReadClusterTopology(r io.Reader, o Options) (Options, error) {
	c, err := cluster.ReadConfig(r)
	if err != nil {
		return o, err
	}
	o.Nodes = c.StartNodes()
	o.NodeTypes = nil
	for _, t := range c.Types() {
		o.NodeTypes = append(o.NodeTypes, ClusterNodeType{
			Count: t.Count, SMs: t.SMs, PCIeGen: t.PCIeGen,
			SlowFactor: t.SlowFactor, HBMBytes: t.HBMBytes,
		})
	}
	if c.Dispatch != "" {
		o.Dispatch = DispatchKind(c.Dispatch)
	}
	if c.Seed != 0 {
		o.DispatchSeed = c.Seed
	}
	if c.ContextCapacity != 0 {
		o.ContextCapacity = c.ContextCapacity
	}
	if c.Autoscale != nil {
		a := c.Autoscale
		o.Autoscale = &AutoscalePolicy{
			Interval:    time.Duration(a.Interval),
			Cooldown:    time.Duration(a.Cooldown),
			Min:         a.Min,
			Max:         a.Max,
			Step:        a.Step,
			Class:       a.Class,
			HighP99:     time.Duration(a.HighP99),
			HighMiss:    a.HighMiss,
			HighBacklog: a.HighBacklog,
			LowBacklog:  a.LowBacklog,
		}
	}
	if c.Faults != nil {
		f := c.Faults
		o.Faults = &FaultPlan{
			Seed:          f.Seed,
			KillRate:      f.KillRate,
			Downtime:      time.Duration(f.Downtime),
			StragglerFrac: f.StragglerFrac,
			SlowFactor:    f.SlowFactor,
		}
	}
	if c.Resilience != nil {
		o.Resilience = liftResilience(c.Resilience)
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
		disp, err := cluster.NewDispatcher(cluster.Kind(o.Dispatch), dispSeed)
		if err != nil {
			return cluster.RunConfig{}, err
		}
		crc := cluster.RunConfig{
			Sys:        rc.Sys,
			Nodes:      nodes,
			Dispatcher: disp,
			Policy:     rc.Policy,
			Mechanism:  rc.Mechanism,
			MaxSimTime: rc.MaxSimTime,
			Parallel:   o.ParWindow,
			HBM:        o.HBM,
			Swap:       o.Swap,
		}
		for _, t := range o.NodeTypes {
			crc.NodeTypes = append(crc.NodeTypes, cluster.NodeType{
				Count: t.Count, SMs: t.SMs, PCIeGen: t.PCIeGen,
				SlowFactor: t.SlowFactor, HBMBytes: t.HBMBytes,
			})
		}
		if o.Autoscale != nil {
			asc, err := cluster.NewStepAutoscaler(o.Autoscale.lower())
			if err != nil {
				return cluster.RunConfig{}, err
			}
			crc.Autoscale = asc
		}
		if o.Faults != nil {
			crc.Faults = o.Faults.lower()
		}
		if o.Resilience != nil {
			crc.Resilience = o.Resilience.lower()
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
