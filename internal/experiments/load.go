package experiments

import (
	"fmt"

	"repro/internal/arrivals"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// loadHorizon is the injection window of every load-sweep cell.
const loadHorizon = 5 * sim.Millisecond

// loadDeadline is the completion-latency budget of the high-priority "rt"
// class: comfortably above an uncontended short request's service time, but
// below what a request eats when its SMs are recovered by draining
// long-thread-block victims.
const loadDeadline = 250 * sim.Microsecond

// loadShortTB splits the suite's kernels into the rt class (short thread
// blocks: cheap, latency-sensitive requests) and the batch class (long
// thread blocks: the victims whose preemption cost separates mechanisms).
const loadShortTB = 10 * sim.Microsecond

// DefaultLoadRates returns the swept offered loads in requests per second
// for a given benchmark scale factor. Request sizes shrink linearly with
// scale, so the sweep tracks it: the low point keeps the machine lightly
// loaded, the middle approaches saturation, and the top point overloads it.
func DefaultLoadRates(scale int) []float64 {
	s := float64(scale)
	return []float64{100 * s, 400 * s, 1600 * s}
}

// rtHeader heads the columns rtCells renders.
var rtHeader = []string{"admitted", "done", "inflight",
	"rt-wait-p95(us)", "rt-p50(us)", "rt-p95(us)", "rt-p99(us)", "rt-miss", "goodput(req/s)", "util"}

// rtCells renders the per-cell statistics the load and cluster sweeps share:
// request counts (inflight is the backlog still in the machine at the end of
// the simulation), the rt class's p95 queueing latency and completion-latency
// percentiles in microseconds and its deadline-miss rate, SLO-compliant
// completions per simulated second and the SM busy fraction. rt is the rt
// class's account.
func rtCells(rt *metrics.ClassSLO, admitted, completed, inFlight int, goodput, util float64) []string {
	return []string{
		fmt.Sprintf("%d", admitted),
		fmt.Sprintf("%d", completed),
		fmt.Sprintf("%d", inFlight),
		fmt.Sprintf("%.1f", rt.Wait.Quantile(0.95).Microseconds()),
		fmt.Sprintf("%.1f", rt.Latency.Quantile(0.50).Microseconds()),
		fmt.Sprintf("%.1f", rt.Latency.Quantile(0.95).Microseconds()),
		fmt.Sprintf("%.1f", rt.Latency.Quantile(0.99).Microseconds()),
		fmt.Sprintf("%.3f", rt.MissRate()),
		fmt.Sprintf("%.0f", goodput),
		fmt.Sprintf("%.2f", util),
	}
}

// LoadRow is one cell of the load sweep: one mechanism at one offered load,
// and the open-system result it measured.
type LoadRow struct {
	// RatePerSec is the offered load (requests per second).
	RatePerSec float64
	Mechanism  string
	*arrivals.Result
}

// LoadResult is the data behind the load sweep.
type LoadResult struct {
	// Rates are the swept offered loads, ascending.
	Rates []float64
	Rows  []LoadRow
}

// Table renders the sweep: per offered load, how each mechanism trades the
// rt class's tail latency and deadline misses against goodput.
func (r *LoadResult) Table() *Table {
	t := &Table{
		Title:  "Load sweep: open-system arrivals (Poisson, rt/batch classes over the Parboil kernel mix) under PPQ",
		Header: append([]string{"rate(req/s)", "mechanism"}, rtHeader...),
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, append([]string{fmt.Sprintf("%.0f", row.RatePerSec), row.Mechanism},
			rtCells(&row.Classes[0], row.Admitted, row.Completed, row.InFlight, row.Goodput, row.Utilization)...))
	}
	return t
}

// loadClasses builds the sweep's two service classes over the (scaled)
// Parboil suite, exploded into single-kernel micro-requests: a
// latency-sensitive rt class over the short-thread-block kernels and a
// batch class over the long-thread-block kernels whose resident blocks make
// draining expensive.
func loadClasses(suite []*trace.App) []arrivals.ClassSpec {
	micro := arrivals.MicroApps(suite)
	var short, long []arrivals.AppChoice
	for _, c := range micro {
		if c.App.Kernels[0].TBTime <= loadShortTB {
			short = append(short, c)
		} else {
			long = append(long, c)
		}
	}
	return []arrivals.ClassSpec{
		{Name: "rt", Priority: 1, Weight: 1, Deadline: loadDeadline, Apps: short},
		{Name: "batch", Priority: 0, Weight: 3, Apps: long},
	}
}

// peakLoadRate is the top of DefaultLoadRates: a rate that overloads one
// machine, the offered load every fleet grid but the load sweep serves.
func peakLoadRate(scale int) float64 {
	rates := DefaultLoadRates(scale)
	return rates[len(rates)-1]
}

// poissonStream generates the arrival stream a fleet grid replays in every
// cell: a Poisson process at rate requests per second, modulated by phases
// (nil = constant), over the load horizon, drawing from classes and seeded
// by Options.Seed and the grid's seed coordinates.
func (h *Harness) poissonStream(rate float64, classes []arrivals.ClassSpec, phases []arrivals.Phase, coords ...uint64) (*trace.ArrivalTrace, error) {
	tr, err := arrivals.Generate(arrivals.GenSpec{
		Process: arrivals.ProcPoisson,
		Rate:    rate,
		Horizon: loadHorizon,
		Seed:    rng.SeedFrom(h.Opts.Seed, coords...),
		Classes: classes,
		Phases:  phases,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: generating load %g/s: %w", rate, err)
	}
	return tr, nil
}

// RunLoad sweeps offered load x preemption mechanism on an open-system
// Poisson arrival stream. All mechanisms at one offered load replay the
// identical arrival trace (the stream seed derives from the rate index
// only), so their rows differ exclusively through scheduling. Cells run on
// the shared concurrent runner and aggregate in submission order: the table
// is byte-identical at any worker count. rates == nil sweeps
// DefaultLoadRates for the configured scale.
func RunLoad(o Options, rates []float64) (*LoadResult, error) {
	h := NewHarness(o)
	if rates == nil {
		rates = DefaultLoadRates(h.Opts.Scale)
	}
	classes := loadClasses(h.Suite)

	var rows []LoadRow
	var trs []*trace.ArrivalTrace
	var mechs []func() core.Mechanism
	for ri, rate := range rates {
		tr, err := h.poissonStream(rate, classes, nil, 0x10AD, uint64(ri))
		if err != nil {
			return nil, err
		}
		for _, c := range mechConfs() {
			rows = append(rows, LoadRow{RatePerSec: rate, Mechanism: c.label})
			trs, mechs = append(trs, tr), append(mechs, c.mk)
		}
	}

	results, err := mapCells(h.Opts, len(rows), func(i int) (*arrivals.Result, error) {
		res, err := arrivals.Run(trs[i], arrivals.RunConfig{
			Sys:       h.runConfig(false).Sys,
			Policy:    ppq,
			Mechanism: mechs[i],
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: load %g/s %s: %w", rows[i].RatePerSec, rows[i].Mechanism, err)
		}
		return res, nil
	}, func(i int, res *arrivals.Result) string {
		return fmt.Sprintf("load=%-8.0f %-14s done=%-5d end=%-12v util=%.2f",
			rows[i].RatePerSec, rows[i].Mechanism, res.Completed, res.EndTime, res.Utilization)
	})
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		rows[i].Result = res
	}
	return &LoadResult{Rates: rates, Rows: rows}, nil
}
