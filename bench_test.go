// Benchmarks regenerating each table and figure of the paper at reduced
// scale (the cmd/experiments binary runs them at full scale). Custom
// metrics report the headline quantity of each figure so the shape of the
// result is visible straight from `go test -bench`.
package repro

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/parboil"
	"repro/internal/policy"
	"repro/internal/preempt"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchOpts are reduced-scale experiment options for benchmarking: the
// shape-defining statistics (occupancy, preemption latencies, per-TB times)
// are preserved; only makespans shrink.
func benchOpts(sizes ...int) experiments.Options {
	return experiments.Options{
		Sizes:   sizes,
		PerSize: 5,
		Seed:    2014,
		Scale:   48,
		MinRuns: 2,
	}
}

// BenchmarkTable1 recomputes the derived columns of Table 1.
func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable1(experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 24 {
			b.Fatal("row count")
		}
	}
}

// BenchmarkFig2 regenerates the motivating preemption timeline (Figure 2)
// and reports the speedup of the soft real-time kernel under PPQ vs FCFS.
func BenchmarkFig2(b *testing.B) {
	b.ReportAllocs()
	var last *experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig2(uint64(i+1), experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.FCFS)/float64(last.PPQ), "x-ppq-speedup")
	b.ReportMetric(float64(last.FCFS)/float64(last.NPQ), "x-npq-speedup")
}

// BenchmarkFig5 regenerates the high-priority NTT improvement figure for
// 4-process workloads and reports the average improvements.
func BenchmarkFig5(b *testing.B) {
	b.ReportAllocs()
	var fig5 *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		f5, _, err := experiments.RunPriority(benchOpts(4))
		if err != nil {
			b.Fatal(err)
		}
		fig5 = f5
	}
	if v, ok := fig5.Improvement("AVERAGE", experiments.SchedNPQ, 4); ok {
		b.ReportMetric(v, "x-npq")
	}
	if v, ok := fig5.Improvement("AVERAGE", experiments.SchedPPQCS, 4); ok {
		b.ReportMetric(v, "x-ppq-cs")
	}
	if v, ok := fig5.Improvement("AVERAGE", experiments.SchedPPQDrain, 4); ok {
		b.ReportMetric(v, "x-ppq-drain")
	}
}

// BenchmarkFig6 regenerates the STP-degradation figure for 4-process
// workloads and reports the exclusive-access degradations.
func BenchmarkFig6(b *testing.B) {
	b.ReportAllocs()
	var fig6 *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		_, f6, err := experiments.RunPriority(benchOpts(4))
		if err != nil {
			b.Fatal(err)
		}
		fig6 = f6
	}
	if v, ok := fig6.Degradation("exclusive", "Context Switch", 4); ok {
		b.ReportMetric(v, "x-stp-deg-cs")
	}
	if v, ok := fig6.Degradation("exclusive", "Draining", 4); ok {
		b.ReportMetric(v, "x-stp-deg-drain")
	}
}

// BenchmarkFig7 regenerates the DSS equal-sharing figure for 4-process
// workloads and reports NTT and fairness improvements.
func BenchmarkFig7(b *testing.B) {
	b.ReportAllocs()
	var fig7 *experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		f7, _, err := experiments.RunDSS(benchOpts(4))
		if err != nil {
			b.Fatal(err)
		}
		fig7 = f7
	}
	if v, ok := fig7.NTTImprovement("AVERAGE", experiments.ConfDSSCS, 4); ok {
		b.ReportMetric(v, "x-ntt-cs")
	}
	if v, ok := fig7.FairnessImprovement(experiments.ConfDSSCS, 4); ok {
		b.ReportMetric(v, "x-fairness-cs")
	}
	if v, ok := fig7.STPDegradation(experiments.ConfDSSCS, 4); ok {
		b.ReportMetric(v, "x-stp-deg-cs")
	}
}

// BenchmarkFig8 regenerates the per-workload ANTT curves for 4-process
// workloads and reports the median ANTT per configuration.
func BenchmarkFig8(b *testing.B) {
	b.ReportAllocs()
	var fig8 *experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		_, f8, err := experiments.RunDSS(benchOpts(4))
		if err != nil {
			b.Fatal(err)
		}
		fig8 = f8
	}
	median := func(conf string) float64 {
		s := fig8.Sorted(4, conf)
		return s[len(s)/2]
	}
	b.ReportMetric(median(experiments.ConfFCFS), "antt-fcfs")
	b.ReportMetric(median(experiments.ConfDSSCS), "antt-dss-cs")
	b.ReportMetric(median(experiments.ConfDSSDrain), "antt-dss-drain")
}

// --- concurrent experiment runner ----------------------------------------

// benchWorkerCounts are the worker counts the parallel-runner benchmarks
// sweep: sequential, 2, 4, and every CPU (deduplicated).
func benchWorkerCounts() []int {
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		counts = append(counts, n)
	}
	return counts
}

// BenchmarkGridWorkers regenerates the full evaluation grid behind Figures
// 5–8 (every workload size, priority and DSS configurations) at reduced
// scale under increasing worker counts. Results are identical at every
// count; only the wall-clock changes, so comparing the workers=1 and
// workers=N lines of `go test -bench GridWorkers` shows the runner's
// speedup directly.
func BenchmarkGridWorkers(b *testing.B) {
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o := benchOpts(2, 4, 6, 8)
				o.Workers = workers
				if _, _, err := experiments.RunPriority(o); err != nil {
					b.Fatal(err)
				}
				if _, _, err := experiments.RunDSS(o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunManyWorkers measures the facade batch path: one DSS workload
// replicated across derived seeds, simulated on 1..N workers.
func BenchmarkRunManyWorkers(b *testing.B) {
	var apps []*App
	for _, n := range []string{"spmv", "histo", "sgemm", "mri-q"} {
		a, err := AppByName(n)
		if err != nil {
			b.Fatal(err)
		}
		apps = append(apps, a.Scale(16))
	}
	ws := make([]Workload, 16)
	for i := range ws {
		ws[i] = Workload{Apps: apps, HighPriority: -1}
	}
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("parallel=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			o := Options{Policy: PolicyDSS, MinRuns: 2, Parallel: workers}
			for i := 0; i < b.N; i++ {
				if _, err := RunMany(context.Background(), ws, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- microbenchmarks of the substrate ------------------------------------

// BenchmarkEventEngine measures raw discrete-event throughput.
func BenchmarkEventEngine(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	var tick sim.Func
	n := 0
	tick = func(any, int64) {
		n++
		if n < b.N {
			eng.AfterFunc(1, tick, nil, 0)
		}
	}
	b.ResetTimer()
	eng.AfterFunc(1, tick, nil, 0)
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkIssueCompleteTB isolates the per-thread-block hot path — issue,
// completion event, refill — on a bare framework with no process replay, DMA
// or preemption in the loop. It is the microbenchmark behind the
// allocation-free scheduling core: each iteration pushes one kernel through
// the machine, so allocs/op tracks the whole issue/complete cycle.
func BenchmarkIssueCompleteTB(b *testing.B) {
	eng := sim.NewEngine()
	fw, err := core.New(eng, gpu.DefaultConfig(), policy.NewFCFS(), preempt.Drain{},
		core.Options{Jitter: 0.3, Seed: 1}, nil)
	if err != nil {
		b.Fatal(err)
	}
	tbl := gpu.NewContextTable(4)
	ctx, err := tbl.Create("bench", 0)
	if err != nil {
		b.Fatal(err)
	}
	spec := &trace.KernelSpec{
		Name:         "micro",
		NumTBs:       2048,
		TBTime:       sim.Microseconds(2),
		RegsPerTB:    8192,
		ThreadsPerTB: 128,
		Launches:     1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	tbs := 0
	for i := 0; i < b.N; i++ {
		if err := fw.Submit(&core.LaunchCmd{Ctx: ctx, Spec: spec}); err != nil {
			b.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		tbs += spec.NumTBs
	}
	if fw.Stats().TBsCompleted != tbs {
		b.Fatalf("completed %d TBs, want %d", fw.Stats().TBsCompleted, tbs)
	}
	b.ReportMetric(float64(tbs)/b.Elapsed().Seconds(), "TBs/s")
}

// BenchmarkHostCalibration does fixed work that runs no repro code: each op
// refills a 64Ki-element slice with the same xorshift sequence and sorts it
// with the standard library. Its ns/op therefore measures the host, not the
// simulator; cmd/benchcheck scales every baselined ns/op entry by its
// measured/recorded ratio (the baseline's "reference") before gating.
func BenchmarkHostCalibration(b *testing.B) {
	buf := make([]uint64, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := uint64(88172645463325252)
		for j := range buf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			buf[j] = x
		}
		slices.Sort(buf)
	}
}

// BenchmarkOccupancy measures the occupancy calculator over Table 1.
func BenchmarkOccupancy(b *testing.B) {
	b.ReportAllocs()
	cfg := gpu.DefaultConfig()
	suite := parboil.Suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, app := range suite {
			for j := range app.Kernels {
				if _, err := cfg.Occupancy(&app.Kernels[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// benchWorkload runs one multiprogrammed simulation per iteration and
// reports simulated thread blocks per wall second.
func benchWorkload(b *testing.B, pol func(n int) core.Policy, mech func() core.Mechanism, names ...string) {
	var apps []*trace.App
	for _, n := range names {
		a, err := parboil.App(n)
		if err != nil {
			b.Fatal(err)
		}
		apps = append(apps, a.Scale(16))
	}
	cfg := system.DefaultConfig()
	cfg.Seed = 1
	rc := workload.RunConfig{Sys: cfg, Policy: pol, Mechanism: mech, MinRuns: 2}
	spec := workload.Spec{Name: "bench", Apps: apps, HighPriority: -1, Seed: 1}
	// One untimed run leaves a recycled machine on this goroutine's P, so
	// the timed loop measures a grid's steady state. Without it, whether
	// the loop starts on that machine or builds one depends on which P the
	// benchmark goroutine lands on.
	if _, err := workload.Run(spec, rc); err != nil {
		b.Fatal(err)
	}
	totalTBs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := workload.Run(spec, rc)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatal("incomplete")
		}
		totalTBs += res.Stats.TBsCompleted
	}
	b.ReportMetric(float64(totalTBs)/b.Elapsed().Seconds(), "TBs/s")
}

// BenchmarkWorkloadFCFS4 measures simulator throughput under FCFS.
func BenchmarkWorkloadFCFS4(b *testing.B) {
	benchWorkload(b,
		func(n int) core.Policy { return policy.NewFCFS() }, nil,
		"spmv", "histo", "sgemm", "mri-q")
}

// BenchmarkWorkloadDSS4CS measures simulator throughput under DSS with
// context switching (preemption-heavy).
func BenchmarkWorkloadDSS4CS(b *testing.B) {
	benchWorkload(b,
		func(n int) core.Policy { return policy.NewDSS(n) },
		func() core.Mechanism { return preempt.ContextSwitch{} },
		"spmv", "histo", "sgemm", "mri-q")
}

// BenchmarkWorkloadDSS8Drain measures an 8-process DSS/draining workload.
func BenchmarkWorkloadDSS8Drain(b *testing.B) {
	benchWorkload(b,
		func(n int) core.Policy { return policy.NewDSS(n) },
		func() core.Mechanism { return preempt.Drain{} },
		"spmv", "histo", "sgemm", "mri-q", "cutcp", "tpacf", "sad", "lbm")
}

// BenchmarkIsolatedBaselines measures the isolated-run path.
func BenchmarkIsolatedBaselines(b *testing.B) {
	b.ReportAllocs()
	app, err := parboil.App("histo")
	if err != nil {
		b.Fatal(err)
	}
	app = app.Scale(16)
	cfg := system.DefaultConfig()
	cfg.Seed = 1
	rc := workload.RunConfig{Sys: cfg, MinRuns: 3}
	// As in benchWorkload: measure a warm recycled machine.
	if _, err := workload.Isolated(app, rc); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Isolated(app, rc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunOpen measures the single-node open-system hot path end to
// end through the public facade: stream synthesis, per-arrival admission
// (context + process), PPQ scheduling with adaptive preemption, streaming
// SLO accounting, and retirement. It is gated by the benchcheck CI job via
// bench_baseline.json, so regressions on the arrivals path fail CI.
func BenchmarkRunOpen(b *testing.B) {
	b.ReportAllocs()
	spmv, err := AppByName("spmv")
	if err != nil {
		b.Fatal(err)
	}
	lbm, err := AppByName("lbm")
	if err != nil {
		b.Fatal(err)
	}
	spec := &ArrivalSpec{
		Process: ArrivalPoisson,
		Rate:    30000,
		Horizon: SimTime(4 * time.Millisecond),
		Classes: []ArrivalClass{
			{Name: "rt", Priority: 1, Weight: 1, Deadline: SimTime(250 * time.Microsecond), Apps: []AppChoice{{App: spmv.Scale(96), Weight: 1}}},
			{Name: "batch", Priority: 0, Weight: 3, Apps: []AppChoice{{App: lbm.Scale(96), Weight: 1}}},
		},
	}
	opts := Options{Policy: PolicyPPQ, Mechanism: MechanismAdaptive, Seed: 7, Arrivals: spec}
	b.ResetTimer()
	var last *OpenResult
	for i := 0; i < b.N; i++ {
		res, err := RunOpen(opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last.Completed == 0 {
		b.Fatal("benchmark stream completed nothing")
	}
	b.ReportMetric(float64(last.Admitted), "requests")
}

// benchClusterOpts builds the cluster-scale benchmark configuration: a
// million-arrival Poisson stream dispatched round-robin across 64 GPUs
// under PPQ+adaptive. The apps are scaled to minimal thread-block counts so
// the run exercises the cluster machinery (dispatch, admission, the
// window/lockstep executors, merge) rather than intra-GPU simulation. The
// stream is synthesized once and replayed as a trace, so every sub-benchmark
// iteration measures simulation only.
func benchClusterOpts(b *testing.B) Options {
	b.Helper()
	spmv, err := AppByName("spmv")
	if err != nil {
		b.Fatal(err)
	}
	lbm, err := AppByName("lbm")
	if err != nil {
		b.Fatal(err)
	}
	spec := &ArrivalSpec{
		Process:     ArrivalPoisson,
		Rate:        2e6,
		Horizon:     SimTime(2 * time.Second),
		MaxArrivals: 1_000_000,
		Classes: []ArrivalClass{
			{Name: "rt", Priority: 1, Weight: 1, Deadline: SimTime(250 * time.Microsecond), Apps: []AppChoice{{App: spmv.Scale(1 << 20), Weight: 1}}},
			{Name: "batch", Priority: 0, Weight: 3, Apps: []AppChoice{{App: lbm.Scale(1 << 20), Weight: 1}}},
		},
	}
	opts := Options{
		Policy:    PolicyPPQ,
		Mechanism: MechanismAdaptive,
		Seed:      7,
		Cluster:   ClusterConfig{Nodes: 64, Dispatch: DispatchRoundRobin},
		Arrivals:  spec,
	}
	tr, err := spec.Synthesize(opts)
	if err != nil {
		b.Fatal(err)
	}
	opts.Arrivals = &ArrivalSpec{Trace: tr}
	return opts
}

// BenchmarkRunCluster measures the cluster hot path end to end through the
// public facade on a million-arrival, 64-GPU fleet. The unprefixed lines
// dispatch round-robin (load-oblivious: its Pick reads no node state):
// lockstep is the event-by-event reference; window=N runs the
// parallel-in-time executor on N workers. The jsq- lines dispatch
// join-shortest-queue, where every placement reads fleet load that the
// window merge must rebuild first. Both windowed families run the PCIe
// latency-floor lookahead, so the pair prices load-aware dispatch
// decisions.
// Results are byte-identical within a dispatch policy — only the wall-clock
// changes. The lockstep, window=8, jsq-lockstep and jsq-window=8 lines are
// gated by the benchcheck CI job via bench_baseline.json.
func BenchmarkRunCluster(b *testing.B) {
	opts := benchClusterOpts(b)
	for _, cfg := range []struct {
		name     string
		dispatch DispatchKind
		workers  int
	}{
		{"lockstep", DispatchRoundRobin, 0},
		{"window=1", DispatchRoundRobin, 1},
		{"window=8", DispatchRoundRobin, 8},
		{"jsq-lockstep", DispatchJSQ, 0},
		{"jsq-window=8", DispatchJSQ, 8},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			opts.Cluster.Dispatch = cfg.dispatch
			opts.ParWindow = cfg.workers
			b.ResetTimer()
			var last *ClusterResult
			for i := 0; i < b.N; i++ {
				res, err := RunCluster(opts)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			if n := len(opts.Arrivals.Trace.Arrivals); last.Completed != n {
				b.Fatalf("completed %d of %d arrivals", last.Completed, n)
			}
			b.ReportMetric(float64(last.Completed)/b.Elapsed().Seconds()*float64(b.N), "requests/s")
		})
	}
}
