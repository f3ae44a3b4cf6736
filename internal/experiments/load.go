package experiments

import (
	"fmt"

	"repro/internal/arrivals"
	"repro/internal/core"
	"repro/internal/pcie"
	"repro/internal/policy"
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

// LoadRow is one cell of the load sweep: one mechanism at one offered load.
type LoadRow struct {
	// RatePerSec is the offered load (requests per second).
	RatePerSec float64
	Mechanism  string
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
	// Utilization is the SM busy fraction.
	Utilization float64
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
		Title: "Load sweep: open-system arrivals (Poisson, rt/batch classes over the Parboil kernel mix) under PPQ",
		Header: []string{"rate(req/s)", "mechanism", "admitted", "done", "inflight",
			"rt-wait-p95(us)", "rt-p50(us)", "rt-p95(us)", "rt-p99(us)", "rt-miss", "goodput(req/s)", "util"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", row.RatePerSec),
			row.Mechanism,
			fmt.Sprintf("%d", row.Admitted),
			fmt.Sprintf("%d", row.Completed),
			fmt.Sprintf("%d", row.InFlight),
			fmt.Sprintf("%.1f", row.RTWaitP95Us),
			fmt.Sprintf("%.1f", row.RTLatP50Us),
			fmt.Sprintf("%.1f", row.RTLatP95Us),
			fmt.Sprintf("%.1f", row.RTLatP99Us),
			fmt.Sprintf("%.3f", row.RTMissRate),
			fmt.Sprintf("%.0f", row.Goodput),
			fmt.Sprintf("%.2f", row.Utilization),
		})
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
		tr, err := arrivals.Generate(arrivals.GenSpec{
			Process: arrivals.ProcPoisson,
			Rate:    rate,
			Horizon: loadHorizon,
			Seed:    rng.SeedFrom(o.Seed, 0x10AD, uint64(ri)),
			Classes: classes,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: generating load %g/s: %w", rate, err)
		}
		for _, c := range confs {
			jobs = append(jobs, loadJob{rate: rate, mech: c, tr: tr})
		}
	}

	results, err := mapCells(o, len(jobs), func(i int) (*arrivals.Result, error) {
		j := jobs[i]
		res, err := arrivals.Run(j.tr, arrivals.RunConfig{
			Sys:       h.runConfig(pcie.FCFS{}).Sys,
			Policy:    func(n int) core.Policy { return policy.NewPPQ(false) },
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
		rt := &res.Classes[0]
		out.Rows = append(out.Rows, LoadRow{
			RatePerSec:  j.rate,
			Mechanism:   j.mech.label,
			Admitted:    res.Admitted,
			Completed:   res.Completed,
			InFlight:    res.InFlight,
			RTWaitP95Us: rt.Wait.Quantile(0.95).Microseconds(),
			RTLatP50Us:  rt.Latency.Quantile(0.50).Microseconds(),
			RTLatP95Us:  rt.Latency.Quantile(0.95).Microseconds(),
			RTLatP99Us:  rt.Latency.Quantile(0.99).Microseconds(),
			RTMissRate:  rt.MissRate(),
			Goodput:     res.Goodput,
			Utilization: res.Utilization,
		})
	}
	return out, nil
}
