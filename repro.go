// Package repro is a Go reproduction of "Enabling Preemptive
// Multiprogramming on GPUs" (Tanasic et al., ISCA 2014).
//
// It provides a trace-driven simulator of a GK110 (Kepler)-class GPU
// extended with the paper's hardware multiprogramming support: four per-SM
// preemption mechanisms (context switch, draining, flush for idempotent
// kernels, and an adaptive cost-model hybrid), concurrent execution
// of kernels from different processes, a hardware scheduling framework
// (command buffers, active queue, KSRT, SMST, PTBQs) and scheduling policies
// including the paper's Dynamic Spatial Sharing (DSS).
//
// This package is the public facade: it exposes the benchmark suite, the
// machine and scheduler configuration, and a Run function that simulates a
// multiprogrammed workload and reports the paper's metrics (NTT, ANTT, STP,
// fairness). The building blocks live under internal/ (see DESIGN.md).
//
// Quick start:
//
//	suite := repro.Suite()
//	res, err := repro.Run(
//		repro.Workload{Apps: []*repro.App{suite[3], suite[6]}},
//		repro.Options{Policy: repro.PolicyDSS, Mechanism: repro.MechanismContextSwitch},
//	)
package repro

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/parboil"
	"repro/internal/policy"
	"repro/internal/preempt"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/workload"
)

// PolicyKind selects a scheduling policy.
type PolicyKind string

// Available scheduling policies.
const (
	// PolicyFCFS models current GPUs: first-come first-serve, one context
	// owning the execution engine at a time.
	PolicyFCFS PolicyKind = "fcfs"
	// PolicyNPQ is non-preemptive priority queues.
	PolicyNPQ PolicyKind = "npq"
	// PolicyPPQ is preemptive priority queues with exclusive access for
	// the highest priority level.
	PolicyPPQ PolicyKind = "ppq"
	// PolicyPPQShared is preemptive priority queues granting leftover SMs
	// to lower-priority kernels.
	PolicyPPQShared PolicyKind = "ppq-shared"
	// PolicyDSS is the paper's Dynamic Spatial Sharing policy.
	PolicyDSS PolicyKind = "dss"
	// PolicyTimeSlice is preemptive round-robin time multiplexing.
	PolicyTimeSlice PolicyKind = "timeslice"
	// PolicyStatic is static spatial multitasking: fixed disjoint SM sets
	// per process (Adriaens et al., contrasted with DSS in the paper's §5).
	PolicyStatic PolicyKind = "static"
)

// MechanismKind selects a preemption mechanism.
type MechanismKind string

// Available preemption mechanisms.
const (
	// MechanismContextSwitch saves and restores thread-block contexts.
	MechanismContextSwitch MechanismKind = "context-switch"
	// MechanismDrain stops issue and waits for resident thread blocks.
	MechanismDrain MechanismKind = "drain"
	// MechanismFlush cancels resident thread blocks of idempotent kernels
	// and re-runs them from scratch (no save/restore traffic, wasted work
	// instead); non-idempotent kernels fall back to a context switch.
	MechanismFlush MechanismKind = "flush"
	// MechanismAdaptive picks drain, context switch or flush per preemption
	// with an online cost model fed by a per-kernel thread-block runtime
	// estimator.
	MechanismAdaptive MechanismKind = "adaptive"
	// MechanismNone forbids preemption (only valid with non-preemptive
	// policies).
	MechanismNone MechanismKind = "none"
)

// App is an application trace: a Parboil benchmark from Suite or AppByName,
// or a custom application from AppBuilder. Name, Class1 and Class2 (the
// Table 1 groups by kernel and by application length) describe it, and
// Scale shrinks it for fast experimentation. Treat an App as read-only.
type App = trace.App

// Suite returns the ten Parboil benchmark applications of the paper's
// evaluation (Table 1).
func Suite() []*App { return parboil.Suite() }

// AppByName returns one Parboil benchmark by name (see Names).
func AppByName(name string) (*App, error) { return parboil.App(name) }

// Names lists the benchmark names.
func Names() []string { return parboil.Names() }

// Workload is a set of applications to co-schedule.
type Workload struct {
	// Apps are the co-scheduled applications.
	Apps []*App
	// HighPriority is the index of the prioritized application (-1 or out
	// of range = none).
	HighPriority int
	// Seed perturbs thread-block timing for this workload. Zero means
	// unset: Run falls back to Options.Seed, while RunMany derives a
	// distinct deterministic seed from Options.Seed and the workload's
	// index in the batch (so unseeded replicas differ).
	Seed uint64
}

// Options configures a simulation.
type Options struct {
	// Policy selects the scheduler. Default PolicyFCFS.
	Policy PolicyKind
	// Mechanism selects the preemption mechanism. Default
	// MechanismContextSwitch for preemptive policies.
	Mechanism MechanismKind
	// MinRuns is how many completed runs each application needs (replay
	// methodology, §4.1). Default 3.
	MinRuns int
	// Seed drives all randomness. Default 1.
	Seed uint64
	// Jitter is the thread-block time variability fraction; negative
	// disables jitter. Default 0.30.
	Jitter float64
	// RecordTimeline captures per-SM activity intervals in the result.
	RecordTimeline bool
	// PriorityDMA makes the data-transfer engine serve high-priority
	// transfers first (as in the paper's §4.2 experiments).
	PriorityDMA bool
	// TimeSliceQuantum sets the PolicyTimeSlice quantum. Default 500us.
	TimeSliceQuantum time.Duration
	// MaxSimTime bounds virtual time (guard against starvation).
	// Default 120 simulated seconds.
	MaxSimTime time.Duration
	// MPS runs all applications in one shared GPU context, as NVIDIA's
	// Multi-Process Service does (§2.1): cross-process concurrency under
	// FCFS, but no memory isolation and no per-process scheduling.
	MPS bool
	// Arrivals describes an open-system workload (dynamic request arrivals
	// instead of a fixed co-scheduled set); it is consumed by RunOpen and
	// RunCluster and ignored by Run/RunMany. See ArrivalSpec.
	Arrivals *ArrivalSpec
	// Cluster is RunCluster's fleet: its size or heterogeneous node types,
	// dispatch policy and seed, per-GPU context capacity, and the optional
	// autoscale, fault and resilience plans. It is the topology file's
	// schema (see ReadClusterConfig). Run, RunMany and RunOpen ignore it.
	Cluster ClusterConfig
	// HBM overrides each simulated GPU's device-memory capacity in bytes for
	// RunCluster (0 = the GPU spec's memory size; Cluster.NodeTypes'
	// HBMBytes override it per type). Each admitted request charges its
	// application's working set against the node's capacity; when HBM is
	// oversubscribed admission blocks FIFO — or swaps, with Swap set.
	HBM int64
	// Swap switches RunCluster's oversubscribed GPUs from FIFO admission
	// blocking to host swap: contexts that do not fit spill to the host over
	// the GPU's PCIe link and are proactively swapped back in as memory
	// frees.
	Swap bool
	// ParWindow runs RunCluster on the parallel-window executor with this
	// many workers (0 = lockstep; see ClusterResult.Executor). A run with
	// Cluster.Resilience armed always uses lockstep.
	ParWindow int
	// WarmStart, when positive, has RunCluster first play a warmup stream of
	// this duration through a throwaway fleet and carry the dispatcher's
	// learned state (service-time estimates) into the measured run. The
	// measured fleet itself starts cold — only dispatcher learning is kept —
	// so load sweeps measure steady-state placement instead of the
	// predictor's cold-start transient.
	WarmStart time.Duration
	// Parallel bounds the number of concurrently simulated workloads in
	// RunMany (0 = runtime.NumCPU(), 1 = sequential). Run ignores it.
	Parallel int
	// OnProgress, when non-nil, is called by RunMany after each completed
	// workload with (completed, total). Calls are serialized.
	OnProgress func(completed, total int)
}

// AppMetrics reports one application's outcome.
type AppMetrics struct {
	Name string
	// Runs is the number of completed runs.
	Runs int
	// Turnaround is the mean turnaround in the multiprogrammed workload.
	Turnaround time.Duration
	// Isolated is the mean turnaround when run alone.
	Isolated time.Duration
	// NTT is the normalized turnaround time (Turnaround / Isolated).
	NTT float64
	// Starved reports an application that never completed a run.
	Starved bool
	// HighPriority marks the prioritized application.
	HighPriority bool
}

// TimelineInterval is one contiguous SM activity (only present when
// Options.RecordTimeline is set).
type TimelineInterval struct {
	SM         int
	Kind       string // "setup", "run", "drain", "save"
	Start, End time.Duration
	Kernel     string
	Ctx        int
}

// Result reports a simulated workload.
type Result struct {
	// ANTT, STP and Fairness are the Eyerman & Eeckhout multiprogram
	// metrics of §4.1.
	ANTT, STP, Fairness float64
	// Apps lists per-application outcomes in workload order.
	Apps []AppMetrics
	// EndTime is the virtual time the simulation stopped.
	EndTime time.Duration
	// Completed reports whether every application reached MinRuns.
	Completed bool
	// Preemptions counts SM reservations; ContextSavedBytes counts context
	// traffic moved by the context-switch mechanism; WastedWork is the
	// execution time discarded (and later re-executed) by the flush
	// mechanism.
	Preemptions       int
	ContextSavedBytes int64
	WastedWork        time.Duration
	// Utilization is the SM busy fraction.
	Utilization float64
	// Timeline holds SM activity intervals when recording was requested.
	Timeline []TimelineInterval
}

func (o Options) fill() Options {
	if o.Policy == "" {
		o.Policy = PolicyFCFS
	}
	if o.Mechanism == "" {
		switch o.Policy {
		case PolicyFCFS, PolicyNPQ:
			o.Mechanism = MechanismNone
		default:
			o.Mechanism = MechanismContextSwitch
		}
	}
	if o.MinRuns <= 0 {
		o.MinRuns = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Jitter == 0 {
		o.Jitter = 0.30
	}
	if o.Jitter < 0 {
		o.Jitter = 0
	}
	if o.TimeSliceQuantum <= 0 {
		o.TimeSliceQuantum = 500 * time.Microsecond
	}
	return o
}

func (o Options) policyFactory() (func(n int) core.Policy, error) {
	switch o.Policy {
	case PolicyFCFS:
		return func(n int) core.Policy { return policy.NewFCFS() }, nil
	case PolicyNPQ:
		return func(n int) core.Policy { return policy.NewNPQ() }, nil
	case PolicyPPQ:
		return func(n int) core.Policy { return policy.NewPPQ(false) }, nil
	case PolicyPPQShared:
		return func(n int) core.Policy { return policy.NewPPQ(true) }, nil
	case PolicyDSS:
		return func(n int) core.Policy { return policy.NewDSS(n) }, nil
	case PolicyTimeSlice:
		q := sim.Time(o.TimeSliceQuantum.Nanoseconds())
		return func(n int) core.Policy { return policy.NewTimeSlice(q) }, nil
	case PolicyStatic:
		return func(n int) core.Policy { return policy.NewStatic(n) }, nil
	default:
		return nil, fmt.Errorf("repro: unknown policy %q", o.Policy)
	}
}

func (o Options) mechanismFactory() (func() core.Mechanism, error) {
	switch o.Mechanism {
	case MechanismContextSwitch:
		return func() core.Mechanism { return preempt.ContextSwitch{} }, nil
	case MechanismDrain:
		return func() core.Mechanism { return preempt.Drain{} }, nil
	case MechanismFlush:
		return func() core.Mechanism { return preempt.Flush{} }, nil
	case MechanismAdaptive:
		return func() core.Mechanism { return preempt.NewAdaptive() }, nil
	case MechanismNone:
		return nil, nil
	default:
		return nil, fmt.Errorf("repro: unknown mechanism %q", o.Mechanism)
	}
}

func (o Options) runConfig() (workload.RunConfig, error) {
	sys := system.DefaultConfig()
	sys.Seed = o.Seed
	sys.Jitter = o.Jitter
	sys.RecordTimeline = o.RecordTimeline
	sys.PCIe.Priority = o.PriorityDMA
	pol, err := o.policyFactory()
	if err != nil {
		return workload.RunConfig{}, err
	}
	mech, err := o.mechanismFactory()
	if err != nil {
		return workload.RunConfig{}, err
	}
	return workload.RunConfig{
		Sys:        sys,
		Policy:     pol,
		Mechanism:  mech,
		MinRuns:    o.MinRuns,
		MaxSimTime: sim.Time(o.MaxSimTime.Nanoseconds()),
		MPS:        o.MPS,
	}, nil
}

// isolatedConfig is the run configuration for isolated baselines: the same
// machine under FCFS with no contention. o must already be filled.
func (o Options) isolatedConfig() (workload.RunConfig, error) {
	return Options{Policy: PolicyFCFS, MinRuns: o.MinRuns, Seed: o.Seed, Jitter: o.Jitter}.fill().runConfig()
}

// isolatedCache returns an empty cache of the isolated baselines under o.
// o must already be filled.
func (o Options) isolatedCache() (*workload.Cache, error) {
	rc, err := o.isolatedConfig()
	if err != nil {
		return nil, err
	}
	return workload.NewCache(rc), nil
}

// Run simulates a multiprogrammed workload and reports the paper's metrics.
func Run(w Workload, o Options) (*Result, error) {
	o = o.fill()
	iso, err := o.isolatedCache()
	if err != nil {
		return nil, err
	}
	return run(w, o, iso)
}

// run is the shared implementation behind Run and RunMany. iso memoizes the
// isolated baseline turnarounds under o (RunMany shares one across the batch
// so replicas of the same applications share baselines). o must already be
// filled.
func run(w Workload, o Options, iso *workload.Cache) (*Result, error) {
	if len(w.Apps) == 0 {
		return nil, fmt.Errorf("repro: empty workload")
	}
	rc, err := o.runConfig()
	if err != nil {
		return nil, err
	}
	hp := w.HighPriority
	if hp < 0 || hp >= len(w.Apps) {
		hp = -1
	}
	spec := workload.Spec{Name: "workload", Apps: w.Apps, HighPriority: hp, Seed: w.Seed}
	res, err := workload.Run(spec, rc)
	if err != nil {
		return nil, err
	}

	out := &Result{
		EndTime:           time.Duration(res.EndTime),
		Completed:         res.Completed,
		Preemptions:       res.Stats.Preemptions,
		ContextSavedBytes: res.Stats.ContextSavedBytes,
		WastedWork:        time.Duration(res.Stats.WastedWork),
		Utilization:       res.Utilization,
	}
	perfs := make([]metrics.AppPerf, len(res.Apps))
	for i, ar := range res.Apps {
		isoT, err := iso.Isolated(w.Apps[i])
		if err != nil {
			return nil, err
		}
		perfs[i] = metrics.AppPerf{Name: ar.Name, Isolated: isoT, Shared: ar.MeanTurnaround}
		out.Apps = append(out.Apps, AppMetrics{
			Name:         ar.Name,
			Runs:         ar.Runs,
			Turnaround:   time.Duration(ar.MeanTurnaround),
			Isolated:     time.Duration(isoT),
			NTT:          perfs[i].NTT(),
			Starved:      ar.Starved,
			HighPriority: ar.HighPriority,
		})
	}
	sum, err := metrics.Summarize(perfs)
	if err != nil {
		return nil, err
	}
	out.ANTT, out.STP, out.Fairness = sum.ANTT, sum.STP, sum.Fairness

	if res.Timeline != nil {
		for _, iv := range res.Timeline.Intervals {
			out.Timeline = append(out.Timeline, TimelineInterval{
				SM:     iv.SM,
				Kind:   iv.Kind.String(),
				Start:  time.Duration(iv.Start),
				End:    time.Duration(iv.End),
				Kernel: iv.Kernel,
				Ctx:    iv.CtxID,
			})
		}
	}
	return out, nil
}

// Isolated returns the application's mean turnaround when run alone.
func Isolated(a *App, o Options) (time.Duration, error) {
	rc, err := o.fill().isolatedConfig()
	if err != nil {
		return 0, err
	}
	t, err := workload.Isolated(a, rc)
	return time.Duration(t), err
}
