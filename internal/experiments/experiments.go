// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) plus the ablations listed in DESIGN.md. Each experiment
// returns structured results and can render itself as an aligned text table
// or CSV.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sync"

	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/parboil"
	"repro/internal/policy"
	"repro/internal/preempt"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Options parameterize an experiment run.
type Options struct {
	// Sizes are the workload sizes (processes per workload). Default
	// {2, 4, 6, 8} as in the paper.
	Sizes []int
	// PerSize is the number of random workloads per size. For the priority
	// experiments it should be a multiple of the suite size (10) so every
	// benchmark is the high-priority process equally often. Default 10.
	PerSize int
	// Seed drives workload generation and machine jitter.
	Seed uint64
	// MinRuns is the replay threshold (3 in the paper).
	MinRuns int
	// Scale divides benchmark sizes for quick runs (1 = paper-faithful).
	Scale int
	// Jitter is the per-thread-block time variability fraction; negative
	// disables jitter. Default 0.30.
	Jitter float64
	// Progress, when non-nil, receives one line per completed simulation,
	// prefixed with a [completed/total] job counter.
	Progress io.Writer
	// Workers bounds the number of concurrently running simulations
	// (0 = runtime.NumCPU(), 1 = sequential). Every simulation derives its
	// randomness from its grid coordinates, so results are identical at any
	// worker count.
	Workers int
	// ParWindow runs each cluster simulation's node engines in parallel-in-
	// time windows on this many workers (0 = the lockstep reference). Output
	// is byte-identical either way; it parallelizes inside one cell, where
	// Workers parallelizes across cells.
	ParWindow int
}

func (o Options) withDefaults() Options {
	if len(o.Sizes) == 0 {
		o.Sizes = []int{2, 4, 6, 8}
	}
	if o.PerSize <= 0 {
		o.PerSize = 10
	}
	if o.Seed == 0 {
		o.Seed = 2014
	}
	if o.MinRuns <= 0 {
		o.MinRuns = 3
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Jitter == 0 {
		o.Jitter = 0.30
	}
	if o.Jitter < 0 {
		o.Jitter = 0
	}
	return o
}

// Harness carries the benchmark suite and shared isolated baselines across
// experiments.
type Harness struct {
	Opts  Options
	Suite []*trace.App
	iso   *workload.Cache
}

// NewHarness builds a harness with the (possibly scaled) Parboil suite.
func NewHarness(o Options) *Harness {
	o = o.withDefaults()
	suite := parboil.Suite()
	if o.Scale > 1 {
		for i, a := range suite {
			suite[i] = a.Scale(o.Scale)
		}
	}
	h := &Harness{Opts: o, Suite: suite}
	h.iso = workload.NewCache(h.runConfig(false))
	return h
}

// runConfig returns a workload run configuration whose transfer engine
// serves its queue in priority order when priorityDMA is set, in arrival
// order otherwise.
func (h *Harness) runConfig(priorityDMA bool) workload.RunConfig {
	sys := system.DefaultConfig()
	sys.Jitter = h.Opts.Jitter
	sys.Seed = h.Opts.Seed
	sys.PCIe.Priority = priorityDMA
	return workload.RunConfig{Sys: sys, MinRuns: h.Opts.MinRuns}
}

// Isolated returns the application's isolated baseline turnaround.
func (h *Harness) Isolated(app *trace.App) (sim.Time, error) {
	return h.iso.Isolated(app)
}

// simJob is one independent simulation cell of an experiment grid: a
// workload, a machine configuration, and the policy/mechanism under test.
// Every job is a pure function of its fields (the workload's Seed carries
// all randomness), so jobs may run in any order on any number of workers.
type simJob struct {
	spec  workload.Spec
	rc    workload.RunConfig
	pol   func(n int) core.Policy
	mech  func() core.Mechanism
	label string
}

// run simulates one job.
func (h *Harness) run(j simJob) (*workload.Result, error) {
	rc := j.rc
	rc.Policy = j.pol
	rc.Mechanism = j.mech
	res, err := workload.Run(j.spec, rc)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s on %s: %w", j.label, j.spec.Name, err)
	}
	return res, nil
}

// The schedulers and preemption mechanisms the grids share.
func fcfs(int) core.Policy          { return policy.NewFCFS() }
func npq(int) core.Policy           { return policy.NewNPQ() }
func ppq(int) core.Policy           { return policy.NewPPQ(false) }
func dss(n int) core.Policy         { return policy.NewDSS(n) }
func contextSwitch() core.Mechanism { return preempt.ContextSwitch{} }
func drain() core.Mechanism         { return preempt.Drain{} }

// gridConf is one configuration of a workload grid: a scheduler, a
// preemption mechanism (nil = none) and whether all processes share one
// GPU context (MPS).
type gridConf struct {
	label string
	pol   func(n int) core.Policy
	mk    func() core.Mechanism
	mps   bool
}

// confJobs returns the runGrid cells function that runs every configuration
// on the workload, in order, with the FCFS transfer engine.
func (h *Harness) confJobs(confs []gridConf) func(workload.Spec) []simJob {
	return func(spec workload.Spec) []simJob {
		jobs := make([]simJob, len(confs))
		for i, c := range confs {
			rc := h.runConfig(false)
			rc.MPS = c.mps
			jobs[i] = simJob{spec: spec, rc: rc, pol: c.pol, mech: c.mk, label: c.label}
		}
		return jobs
	}
}

// baselineJob builds the nonprioritized FCFS baseline job for a workload:
// the same workload on the FCFS machine with no priorities ("nonprioritized
// execution"), the reference every high-priority NTT improvement divides by.
func (h *Harness) baselineJob(spec workload.Spec) simJob {
	spec.HighPriority = -1
	return simJob{spec: spec, rc: h.runConfig(false), pol: fcfs, label: "FCFS"}
}

// runAll submits the grid to the shared concurrent runner and returns one
// result per job, in submission order. Experiments build their job list in
// the same nested-loop order their aggregation walks, so aggregating
// results[i] in that order reproduces the sequential path exactly.
func (h *Harness) runAll(jobs []simJob) ([]*workload.Result, error) {
	return mapCells(h.Opts, len(jobs),
		func(i int) (*workload.Result, error) { return h.run(jobs[i]) },
		func(i int, res *workload.Result) string {
			return fmt.Sprintf("%-10s %-9s end=%-12v util=%.2f preempt=%d",
				jobs[i].spec.Name, jobs[i].label, res.EndTime, res.Utilization, res.Stats.Preemptions)
		})
}

// mapCells runs run(i) for every cell i in [0, n) of an experiment grid on
// the shared concurrent runner (o.Workers) and returns the results in
// submission order. With o.Progress set and a non-nil progress,
// every completed cell prints one line: a [completed/total] counter followed
// by progress(i, result).
func mapCells[T any](o Options, n int, run func(i int) (T, error), progress func(i int, res T) string) ([]T, error) {
	var mu sync.Mutex
	done := 0
	return runner.Map(context.Background(), n, runner.Options{Workers: o.Workers},
		func(ctx context.Context, i int) (T, error) {
			res, err := run(i)
			if err == nil && o.Progress != nil && progress != nil {
				mu.Lock()
				done++
				fmt.Fprintf(o.Progress, "  [%d/%d] %s\n", done, n, progress(i, res))
				mu.Unlock()
			}
			return res, err
		})
}

// gridWorkload is one workload of a size x workload x configuration grid
// with the scores of its configurations, in the order the grid's cells
// function returned them.
type gridWorkload struct {
	size   int
	spec   workload.Spec
	scores []metrics.Summary
}

// runGrid simulates a size x workload x configuration grid: for every size,
// PerSize random workloads (the first process high-priority when withHP)
// and, for each workload, the jobs cells returns. Jobs are submitted in that
// nested order and scored against the workload's isolated baselines.
func (h *Harness) runGrid(sizes []int, withHP bool, cells func(spec workload.Spec) []simJob) ([]gridWorkload, error) {
	var grid []gridWorkload
	var jobs []simJob
	for _, size := range sizes {
		for _, spec := range workload.Random(h.Suite, size, h.Opts.PerSize, h.Opts.Seed+uint64(size), withHP) {
			cs := cells(spec)
			grid = append(grid, gridWorkload{size: size, spec: spec, scores: make([]metrics.Summary, len(cs))})
			jobs = append(jobs, cs...)
		}
	}
	results, err := h.runAll(jobs)
	if err != nil {
		return nil, err
	}
	for _, w := range grid {
		for i := range w.scores {
			if w.scores[i], err = h.score(w.spec.Apps, results[0]); err != nil {
				return nil, err
			}
			results = results[1:]
		}
	}
	return grid, nil
}

// score summarizes a workload result against the isolated baselines of
// apps, position by position: the result's own apps, or the untransformed
// apps a transformed run (kernel slicing) is normalized against. NTTs[0] is
// the first process's normalized turnaround time.
func (h *Harness) score(apps []*trace.App, res *workload.Result) (metrics.Summary, error) {
	perfs := make([]metrics.AppPerf, len(res.Apps))
	for i, ar := range res.Apps {
		iso, err := h.Isolated(apps[i])
		if err != nil {
			return metrics.Summary{}, err
		}
		perfs[i] = metrics.AppPerf{Name: ar.Name, Isolated: iso, Shared: ar.MeanTurnaround}
	}
	return metrics.Summarize(perfs)
}

// --- aggregation ----------------------------------------------------------

// meanAgg accumulates values keyed by an arbitrary comparable key.
type meanAgg[K comparable] struct {
	sum map[K]float64
	n   map[K]int
}

func newMeanAgg[K comparable]() *meanAgg[K] {
	return &meanAgg[K]{sum: make(map[K]float64), n: make(map[K]int)}
}

func (a *meanAgg[K]) add(k K, v float64) {
	a.sum[k] += v
	a.n[k]++
}

func (a *meanAgg[K]) mean(k K) (float64, bool) {
	if a.n[k] == 0 {
		return 0, false
	}
	return a.sum[k] / float64(a.n[k]), true
}

// cell renders the mean for a table cell in format, or "-" when nothing was
// added under k.
func (a *meanAgg[K]) cell(k K, format string) string {
	v, ok := a.mean(k)
	if !ok {
		return "-"
	}
	return fmt.Sprintf(format, v)
}

// --- generic table rendering ----------------------------------------------

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Render returns the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// WriteCSV writes the table as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	write := func(cells []string) error {
		for i, c := range cells {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := write(row); err != nil {
			return err
		}
	}
	return nil
}
