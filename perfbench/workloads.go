package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/arrivals"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/parboil"
	"repro/internal/policy"
	"repro/internal/preempt"
	"repro/internal/resilience"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/workload"
)

// seedTag namespaces every seed the benchmark derives from --seed.
const seedTag = 0xBE4C

// scenario builds one workload's op batches. setup is the benchmark's set-up
// phase: it makes the inputs from the seed and assembles the simulator; the
// returned batch's run is the timed simulation.
type scenario interface {
	setup(seed uint64, workers int, t *tracer) (batch, error)
	// refElasticity is the exponent of the reference scaling of the
	// workload's host times (see refScale).
	refElasticity() float64
}

// batch is one set-up simulation of a workload's op batch.
type batch interface {
	// ops is the number of ops the batch simulates.
	ops() int
	// run is the timed simulation.
	run(t *tracer) error
	// outcome checks the outputs and computes the simulated metrics.
	outcome() outcome
	// ledger lists the processes the batch sets up, for the per-request
	// set-up replay.
	ledger() []ledgerReq
}

// outcome is a checked batch result. sim holds the sim_* end-to-end values
// and layer the per-layer counts; both are pure functions of the seed.
type outcome struct {
	failed   []string // failed checks
	executor string
	sim      map[string]float64
	layer    map[string]float64
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.failed = append(o.failed, fmt.Sprintf(format, args...))
	}
}

// ledgerReq is one process set-up of the per-request ledger.
type ledgerReq struct {
	name     string
	priority int
	app      *trace.App
}

// workloads are the benchmark's workloads by name.
var workloads = map[string]scenario{
	"fleet-jsq":   fleetJSQ,
	"fleet-chaos": fleetChaos,
	"paper-grid":  paperGrid,
}

// --- fleets ------------------------------------------------------------------

// fleet is an open-system multi-GPU workload: one generated arrival stream
// dispatched across a fleet by cluster.Cluster. An op is one offered request.
type fleet struct {
	// requests is the stream length: the ops of one batch.
	requests int
	nodes    int
	types    []cluster.NodeType
	dispatch cluster.Kind
	// rate is the offered load in requests per simulated second.
	rate    float64
	classes func() []arrivals.ClassSpec
	faults  *cluster.FaultSpec
	res     *resilience.Spec
	// elasticity is the workload's refElasticity.
	elasticity float64
}

// fleetJSQ stresses the per-request path: minimal-thread-block requests on a
// fault-free 16-GPU jsq fleet, run on the latency-floor lookahead executor.
var fleetJSQ = &fleet{
	requests:   40000,
	nodes:      16,
	dispatch:   cluster.KindJSQ,
	rate:       5e5,
	classes:    minimalMix,
	elasticity: 1,
}

// fleetChaos runs the same per-request path through kills, stragglers,
// timeouts, retries, hedges, breakers and shedding on a fleet whose tight-HBM
// nodes reject working sets that do not fit. The armed resilience layer
// forces the lockstep executor, and its path rejects misfits instead of
// swapping them (see internal/cluster/memory.go), so the fleet runs without
// swap.
var fleetChaos = &fleet{
	requests: 20000,
	types: []cluster.NodeType{
		{Count: 4, HBMBytes: 40 << 20},
		{Count: 4, HBMBytes: 16 << 20},
	},
	dispatch: cluster.KindLeastLoadedFits,
	rate:     150000,
	classes:  microMix,
	faults:   &cluster.FaultSpec{KillRate: 600, Downtime: 200 * sim.Microsecond, StragglerFrac: 0.1, SlowFactor: 1.5},
	res: &resilience.Spec{
		Timeout: 800 * sim.Microsecond,
		Retry: &resilience.RetryPolicy{
			MaxAttempts: 4,
			BackoffBase: 20 * sim.Microsecond,
			Budget:      &resilience.Budget{Tokens: 20, Ratio: 0.1},
		},
		Hedge:   &resilience.HedgePolicy{Quantile: 0.95, MinObs: 16},
		Breaker: &resilience.BreakerPolicy{ErrorRate: 0.5},
		Shed:    &resilience.ShedPolicy{PerNode: 12, Queue: 24},
	},
	elasticity: 0.8,
}

// rtDeadline is the rt class's completion-latency budget.
const rtDeadline = 250 * sim.Microsecond

// minimalMix is the rt:batch 1:3 spmv/lbm mix with every kernel cut to its
// minimal thread-block count, so the cluster machinery, not intra-GPU
// simulation, does the work.
func minimalMix() []arrivals.ClassSpec {
	app := func(name string) *trace.App {
		a, err := parboil.App(name)
		if err != nil {
			panic(err) // the suite is static
		}
		return a.Scale(1 << 20)
	}
	return []arrivals.ClassSpec{
		{Name: "rt", Priority: 1, Weight: 1, Deadline: rtDeadline,
			Apps: []arrivals.AppChoice{{App: app("spmv"), Weight: 1}}},
		{Name: "batch", Priority: 0, Weight: 3,
			Apps: []arrivals.AppChoice{{App: app("lbm"), Weight: 1}}},
	}
}

// microScale shrinks the Parboil kernels of the micro-app mix.
const microScale = 128

// microMix splits the Parboil suite into single-kernel micro requests: short
// thread blocks form the rt class with a 1 MiB working set, long ones the
// batch class with 6 MiB.
func microMix() []arrivals.ClassSpec {
	suite := parboil.Suite()
	for i, a := range suite {
		suite[i] = a.Scale(microScale)
	}
	var short, long []arrivals.AppChoice
	for _, c := range arrivals.MicroApps(suite) {
		if c.App.Kernels[0].TBTime <= 10*sim.Microsecond {
			c.App.WorkingSet = 1 << 20
			short = append(short, c)
		} else {
			c.App.WorkingSet = 6 << 20
			long = append(long, c)
		}
	}
	return []arrivals.ClassSpec{
		{Name: "rt", Priority: 1, Weight: 1, Deadline: rtDeadline, Apps: short},
		{Name: "batch", Priority: 0, Weight: 3, Apps: long},
	}
}

func (f *fleet) refElasticity() float64 { return f.elasticity }

func (f *fleet) setup(seed uint64, workers int, t *tracer) (batch, error) {
	b := &fleetBatch{f: f, sys: system.DefaultConfig()}
	b.sys.Seed = rng.SeedFrom(seed, seedTag, 2)
	err := t.do("arrivals.Generate", func() (err error) {
		b.tr, err = arrivals.Generate(arrivals.GenSpec{
			Process:     arrivals.ProcPoisson,
			Rate:        f.rate,
			MaxArrivals: f.requests,
			Seed:        rng.SeedFrom(seed, seedTag, 1),
			Classes:     f.classes(),
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	disp, err := cluster.NewDispatcher(f.dispatch, rng.SeedFrom(seed, seedTag, 3))
	if err != nil {
		return nil, err
	}
	if t != nil {
		disp = traceDispatcher(disp, t)
	}
	rc := cluster.RunConfig{
		Sys:        b.sys,
		Nodes:      f.nodes,
		NodeTypes:  f.types,
		Dispatcher: disp,
		Faults:     f.faults,
		Resilience: f.res,
		Policy:     policyFactory(func(int) core.Policy { return policy.NewPPQ(false) }, t),
		Mechanism:  mechanismFactory(func() core.Mechanism { return preempt.NewAdaptive() }, t),
		Parallel:   workers,
	}
	err = t.do("cluster.New", func() (err error) {
		b.c, err = cluster.New(b.tr, rc)
		return err
	})
	if err != nil {
		return nil, err
	}
	return b, nil
}

// fleetBatch is one set-up fleet simulation.
type fleetBatch struct {
	f   *fleet
	sys system.Config
	tr  *trace.ArrivalTrace
	c   *cluster.Cluster
	res *cluster.Result
}

func (b *fleetBatch) ops() int { return len(b.tr.Arrivals) }

func (b *fleetBatch) run(t *tracer) error {
	return t.do("cluster.Run", func() (err error) {
		b.res, err = b.c.Run()
		return err
	})
}

func (b *fleetBatch) ledger() []ledgerReq {
	out := make([]ledgerReq, len(b.tr.Arrivals))
	for i, a := range b.tr.Arrivals {
		cls := b.tr.Classes[a.Class]
		out[i] = ledgerReq{name: cls.Name, priority: cls.Priority, app: b.tr.Apps[a.App]}
	}
	return out
}

func (b *fleetBatch) outcome() outcome {
	r, n := b.res, len(b.tr.Arrivals)
	// One executor worker runs the parallel-window path unless the armed
	// resilience layer forces lockstep.
	want := cluster.ExecutorParallelWindow
	if b.f.res != nil {
		want = cluster.ExecutorLockstep
	}
	o := outcome{executor: b.c.Executor()}
	o.check(o.executor == want, "executor %s, want %s", o.executor, want)
	o.check(r.Admitted == r.Completed+r.Lost+r.TimedOut+r.Canceled+r.InFlight,
		"attempts: admitted %d != completed %d + lost %d + timed out %d + canceled %d + in flight %d",
		r.Admitted, r.Completed, r.Lost, r.TimedOut, r.Canceled, r.InFlight)
	if b.f.res != nil {
		o.check(r.Requests == n && r.Requests == r.ReqCompleted+r.Dropped+r.Shed+r.ReqInFlight,
			"requests: %d offered, %d != completed %d + dropped %d + shed %d + in flight %d",
			n, r.Requests, r.ReqCompleted, r.Dropped, r.Shed, r.ReqInFlight)
		o.check(r.ReqInFlight == 0, "%d requests unsettled", r.ReqInFlight)
	}
	if b.f.faults == nil && b.f.res == nil {
		o.check(r.Completed == n && r.InFlight == 0, "completed %d of %d requests", r.Completed, n)
	}

	// Isolated turnaround of every app, for the open-system NTTs: a fixed
	// reference machine, so the seed moves only the stream.
	iso := make([]float64, len(b.tr.Apps))
	ref := b.sys
	ref.Seed = isoSeed
	for i, app := range b.tr.Apps {
		d, err := workload.Isolated(app, workload.RunConfig{Sys: ref, MinRuns: isoRuns})
		o.check(err == nil, "isolated %s: %v", app.Name, err)
		iso[i] = float64(d)
	}
	isoMean := func(class int) float64 {
		var sum float64
		var cnt int
		for _, a := range b.tr.Arrivals {
			if class < 0 || a.Class == class {
				sum += iso[a.App]
				cnt++
			}
		}
		return sum / float64(cnt)
	}
	var all metrics.Sketch
	good := 0
	for i := range r.Classes {
		all.Merge(&r.Classes[i].Latency)
		good += r.Classes[i].Completed - r.Classes[i].Missed
	}
	rt := &r.Classes[0]
	o.sim = map[string]float64{
		"sim_rt_p99_us":    rt.Latency.Quantile(0.99).Microseconds(),
		"sim_goodput_frac": float64(good) / float64(n),
		"sim_antt":         sketchMean(&all) / isoMean(-1),
		"sim_hp_ntt":       sketchMean(&rt.Latency) / isoMean(0),
	}
	st := r.Stats
	fn := float64(n)
	o.layer = map[string]float64{
		"cluster.useful_frac":         float64(r.Completed) / float64(r.Admitted),
		"cluster.lost_per_req":        float64(r.Lost) / fn,
		"gmem.spills_per_req":         float64(r.Spills) / fn,
		"gmem.swap_mib":               float64(r.SwapOutBytes) / (1 << 20),
		"gmem.rejects_per_req":        float64(r.Rejected) / fn,
		"resilience.retries_per_req":  float64(r.Retries) / fn,
		"resilience.hedges_per_req":   float64(r.Hedges) / fn,
		"resilience.timeouts_per_req": float64(r.TimedOut) / fn,
		"resilience.dropped_frac":     float64(r.Dropped) / fn,
		"resilience.breaker_trips":    float64(r.BreakerTrips),
		"core.tbs_per_op":             float64(st.TBsCompleted) / fn,
		"core.preemptions_per_op":     float64(st.Preemptions) / fn,
		"core.sm_util":                r.Utilization,
		"pcie.ctx_mib_per_op":         float64(st.ContextSavedBytes+st.ContextRestored) / (1 << 20) / fn,
	}
	return o
}

// isoSeed and isoRuns fix the fleets' isolated reference runs.
const (
	isoSeed = 1
	isoRuns = 5
)

// sketchMean estimates a latency sketch's mean from 200 evenly spaced
// quantiles (each within the sketch's ~3% bucket error).
func sketchMean(s *metrics.Sketch) float64 {
	const k = 200
	var sum float64
	for i := 0; i < k; i++ {
		sum += float64(s.Quantile((float64(i) + 0.5) / k))
	}
	return sum / k
}

// --- paper grid ----------------------------------------------------------------

// grid is the paper's §4 method at reduced scale: multiprogrammed Parboil
// workloads of each size run under PPQ with one high-priority process and
// under DSS, each with context switch and draining, replayed until every
// application completes minRuns runs, plus the isolated baselines. An op is
// one grid cell.
//
// The workloads of one size are the cyclic windows of random orders of the
// suite (workload.Random at the suite's size): every application runs in the
// same number of workloads and is the high-priority process of exactly one
// per order.
type grid struct {
	sizes []int
	// orders is the number of suite orders cut into workloads per size.
	orders  int
	scale   int
	minRuns int
	// elasticity is the workload's refElasticity.
	elasticity float64
}

// gridOrderSeed fixes the suite orders the grid's workloads are cut from.
// The workload seed draws only the cells' jitter seeds: with seeded orders,
// some 8-application DSS cells under context switch starve one application
// and never complete (seeds 7, 25 and 36 of 1-60 with one order at scale
// 32), while this design completed every cell on seeds 1-60.
const gridOrderSeed = 2014

// cellSimLimit caps a cell's simulated time, so a cell that starves fails
// fast instead of running to the 120 s default. Cells end within 10 ms.
const cellSimLimit = 250 * sim.Millisecond

var paperGrid = &grid{sizes: []int{2, 4, 8}, orders: 2, scale: 128, minRuns: 2, elasticity: 0.6}

// cell is one simulation of the grid.
type cell struct {
	spec workload.Spec
	dss  bool
	mech func() core.Mechanism
}

func (g *grid) refElasticity() float64 { return g.elasticity }

func (g *grid) setup(seed uint64, workers int, t *tracer) (batch, error) {
	b := &gridBatch{g: g}
	err := t.do("workload.Random", func() error {
		b.suite = parboil.Suite()
		for i, a := range b.suite {
			b.suite[i] = a.Scale(g.scale)
		}
		mechs := []func() core.Mechanism{
			func() core.Mechanism { return preempt.ContextSwitch{} },
			func() core.Mechanism { return preempt.Drain{} },
		}
		for _, n := range g.sizes {
			for oi, o := range workload.Random(b.suite, len(b.suite), g.orders, gridOrderSeed+uint64(n), false) {
				order := o.Apps
				for j := range order {
					apps := make([]*trace.App, n)
					for k := range apps {
						apps[k] = order[(j+k)%len(order)]
					}
					spec := workload.Spec{
						Name:         fmt.Sprintf("w%dp-%d-%02d", n, oi, j),
						Apps:         apps,
						HighPriority: 0,
						Seed:         rng.SeedFrom(seed, seedTag, 5, uint64(n), uint64(oi), uint64(j)),
					}
					shared := spec
					shared.HighPriority = -1
					for _, m := range mechs {
						b.cells = append(b.cells, cell{spec: spec, mech: m}, cell{spec: shared, dss: true, mech: m})
					}
				}
			}
		}
		return nil
	})
	// The isolated baselines run on a fixed reference machine; the cells
	// take their jitter seeds from the workload seed.
	b.sys = system.DefaultConfig()
	b.sys.Seed = isoSeed
	return b, err
}

// gridBatch is one set-up paper grid.
type gridBatch struct {
	g       *grid
	suite   []*trace.App
	cells   []cell
	sys     system.Config
	iso     map[string]sim.Time
	results []*workload.Result
}

func (b *gridBatch) ops() int { return len(b.cells) }

func (b *gridBatch) run(t *tracer) error {
	base := workload.RunConfig{Sys: b.sys, MinRuns: b.g.minRuns, MaxSimTime: cellSimLimit}
	b.iso = make(map[string]sim.Time, len(b.suite))
	for _, app := range b.suite {
		err := t.do("workload.Isolated", func() (err error) {
			b.iso[app.Name], err = workload.Isolated(app, base)
			return err
		})
		if err != nil {
			return err
		}
	}
	b.results = make([]*workload.Result, len(b.cells))
	for i, c := range b.cells {
		rc := base
		rc.Mechanism = mechanismFactory(c.mech, t)
		if c.dss {
			rc.Policy = policyFactory(func(n int) core.Policy { return policy.NewDSS(n) }, t)
		} else {
			rc.Policy = policyFactory(func(int) core.Policy { return policy.NewPPQ(false) }, t)
		}
		t.setOp(i)
		err := t.do("workload.Run", func() (err error) {
			b.results[i], err = workload.Run(c.spec, rc)
			return err
		})
		t.setOp(-1)
		if err != nil {
			return err
		}
	}
	return nil
}

func (b *gridBatch) ledger() []ledgerReq {
	var out []ledgerReq
	for _, c := range b.cells {
		for i, app := range c.spec.Apps {
			prio := 0
			if i == c.spec.HighPriority {
				prio = 1
			}
			out = append(out, ledgerReq{name: app.Name, priority: prio, app: app})
		}
	}
	return out
}

func (b *gridBatch) outcome() outcome {
	o := outcome{executor: "sequential"}
	var antt, stp, hpNTT float64
	var nDSS, nPPQ int
	var hpTurn []float64
	var st core.Stats
	var util float64
	for i, r := range b.results {
		c := b.cells[i]
		o.check(r.Completed, "cell %d (%s) did not complete", i, c.spec.Name)
		st.Accumulate(r.Stats)
		util += r.Utilization
		perfs := make([]metrics.AppPerf, len(r.Apps))
		for j, a := range r.Apps {
			perfs[j] = metrics.AppPerf{Name: a.Name, Isolated: b.iso[a.Name], Shared: a.MeanTurnaround}
		}
		if c.dss {
			s, err := metrics.Summarize(perfs)
			o.check(err == nil, "cell %d: %v", i, err)
			antt += s.ANTT
			stp += s.STP / float64(len(perfs))
			nDSS++
			continue
		}
		hp := c.spec.HighPriority
		hpNTT += perfs[hp].NTT()
		nPPQ++
		for _, d := range r.Apps[hp].Turnarounds {
			hpTurn = append(hpTurn, d.Microseconds())
		}
	}
	o.sim = map[string]float64{
		"sim_rt_p99_us":    percentile(hpTurn, 0.99),
		"sim_goodput_frac": stp / float64(nDSS),
		"sim_antt":         antt / float64(nDSS),
		"sim_hp_ntt":       hpNTT / float64(nPPQ),
	}
	fn := float64(len(b.cells))
	o.layer = map[string]float64{
		"core.tbs_per_op":         float64(st.TBsCompleted) / fn,
		"core.preemptions_per_op": float64(st.Preemptions) / fn,
		"core.sm_util":            util / fn,
		"pcie.ctx_mib_per_op":     float64(st.ContextSavedBytes+st.ContextRestored) / (1 << 20) / fn,
	}
	return o
}

// percentile returns the nearest-rank q-quantile of xs (0 when empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
