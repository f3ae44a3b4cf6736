package experiments

import (
	"fmt"

	"repro/internal/arrivals"
	"repro/internal/metrics"
	"repro/internal/pcie"
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

// rtStats are the per-cell statistics the load and cluster sweeps share.
type rtStats struct {
	// Admitted/Completed/InFlight are request counts; InFlight is the
	// backlog still in the machine at the end of the simulation.
	Admitted, Completed, InFlight int
	// RTWaitP95Us is the rt class's p95 queueing latency in microseconds.
	RTWaitP95Us float64
	// RTLatP50Us/P95/P99 are the rt class's completion-latency percentiles.
	RTLatP50Us, RTLatP95Us, RTLatP99Us float64
	// RTMissRate is the rt class's deadline-miss rate.
	RTMissRate float64
	// Goodput is SLO-compliant completions per simulated second.
	Goodput float64
	// Utilization is the SM busy fraction (the fleet mean on a cluster).
	Utilization float64
}

// rtStatsHeader heads the columns rtStats.cells renders.
var rtStatsHeader = []string{"admitted", "done", "inflight",
	"rt-wait-p95(us)", "rt-p50(us)", "rt-p95(us)", "rt-p99(us)", "rt-miss", "goodput(req/s)", "util"}

// newRTStats collects a cell's statistics; rt is the rt class's account.
func newRTStats(rt *metrics.ClassSLO, admitted, completed, inFlight int, goodput, util float64) rtStats {
	return rtStats{
		Admitted:    admitted,
		Completed:   completed,
		InFlight:    inFlight,
		RTWaitP95Us: rt.Wait.Quantile(0.95).Microseconds(),
		RTLatP50Us:  rt.Latency.Quantile(0.50).Microseconds(),
		RTLatP95Us:  rt.Latency.Quantile(0.95).Microseconds(),
		RTLatP99Us:  rt.Latency.Quantile(0.99).Microseconds(),
		RTMissRate:  rt.MissRate(),
		Goodput:     goodput,
		Utilization: util,
	}
}

// cells renders the statistics under rtStatsHeader.
func (s rtStats) cells() []string {
	return []string{
		fmt.Sprintf("%d", s.Admitted),
		fmt.Sprintf("%d", s.Completed),
		fmt.Sprintf("%d", s.InFlight),
		fmt.Sprintf("%.1f", s.RTWaitP95Us),
		fmt.Sprintf("%.1f", s.RTLatP50Us),
		fmt.Sprintf("%.1f", s.RTLatP95Us),
		fmt.Sprintf("%.1f", s.RTLatP99Us),
		fmt.Sprintf("%.3f", s.RTMissRate),
		fmt.Sprintf("%.0f", s.Goodput),
		fmt.Sprintf("%.2f", s.Utilization),
	}
}

// LoadRow is one cell of the load sweep: one mechanism at one offered load.
type LoadRow struct {
	// RatePerSec is the offered load (requests per second).
	RatePerSec float64
	Mechanism  string
	rtStats
}

// LoadResult is the data behind the load sweep.
type LoadResult struct {
	// Rates are the swept offered loads, ascending.
	Rates []float64
	Rows  []LoadRow
}

// Row returns the cell for an offered load and mechanism label.
func (r *LoadResult) Row(rate float64, mech string) (LoadRow, bool) {
	for _, row := range r.Rows {
		if row.RatePerSec == rate && row.Mechanism == mech {
			return row, true
		}
	}
	return LoadRow{}, false
}

// Table renders the sweep: per offered load, how each mechanism trades the
// rt class's tail latency and deadline misses against goodput.
func (r *LoadResult) Table() *Table {
	t := &Table{
		Title:  "Load sweep: open-system arrivals (Poisson, rt/batch classes over the Parboil kernel mix) under PPQ",
		Header: append([]string{"rate(req/s)", "mechanism"}, rtStatsHeader...),
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, append([]string{fmt.Sprintf("%.0f", row.RatePerSec), row.Mechanism}, row.cells()...))
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
	o = h.Opts
	if rates == nil {
		rates = DefaultLoadRates(o.Scale)
	}
	classes := loadClasses(h.Suite)

	confs := mechConfs()

	type loadJob struct {
		rate float64
		mech mechConf
		tr   *trace.ArrivalTrace
	}
	var jobs []loadJob
	for ri, rate := range rates {
		tr, err := h.poissonStream(rate, classes, nil, 0x10AD, uint64(ri))
		if err != nil {
			return nil, err
		}
		for _, c := range confs {
			jobs = append(jobs, loadJob{rate: rate, mech: c, tr: tr})
		}
	}

	results, err := mapCells(o, len(jobs), func(i int) (*arrivals.Result, error) {
		j := jobs[i]
		res, err := arrivals.Run(j.tr, arrivals.RunConfig{
			Sys:       h.runConfig(pcie.FCFS{}).Sys,
			Policy:    ppq,
			Mechanism: j.mech.mk,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: load %g/s %s: %w", j.rate, j.mech.label, err)
		}
		return res, nil
	}, func(i int, res *arrivals.Result) string {
		j := jobs[i]
		return fmt.Sprintf("load=%-8.0f %-14s done=%-5d end=%-12v util=%.2f",
			j.rate, j.mech.label, res.Completed, res.EndTime, res.Utilization)
	})
	if err != nil {
		return nil, err
	}

	out := &LoadResult{Rates: rates}
	for i, res := range results {
		j := jobs[i]
		out.Rows = append(out.Rows, LoadRow{RatePerSec: j.rate, Mechanism: j.mech.label,
			rtStats: newRTStats(&res.Classes[0], res.Admitted, res.Completed, res.InFlight, res.Goodput, res.Utilization)})
	}
	return out, nil
}
