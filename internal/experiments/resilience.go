package experiments

import (
	"fmt"

	"repro/internal/arrivals"
	"repro/internal/cluster"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/trace"
)

// resilienceSweepSeedTag namespaces the resilience sweep's arrival streams:
// one stream per load shape, replayed identically by every fault and policy
// cell of that shape.
const resilienceSweepSeedTag = 0x5AFE

// resilienceNodes is the sweep's fixed fleet size: enough GPUs that masking
// one behind a circuit breaker or retrying on a sibling is a real option.
const resilienceNodes = 4

// resilienceKillRates are the swept fault-injection rates in node kills per
// simulated second; the peak expects a kill roughly every 170us somewhere in
// the fleet — brutal, so recovery policy separates the configs.
var resilienceKillRates = []float64{0, 2000, 6000}

// resilienceTimeout is the per-attempt deadline every armed cell shares:
// above a healthy rt request's end-to-end latency, below the time a request
// stuck behind a dead or drowning GPU would otherwise wait.
const resilienceTimeout = 800 * sim.Microsecond

// resilienceMaxSimTime bounds each cell's virtual clock. The naive-retry
// cells can melt down into retry storms whose ghost work keeps engines busy
// long after the arrival window closes; the cap converts "never finishes"
// into "finishes with the backlog still in flight", which the table reports
// honestly as dropped and in-flight requests.
const resilienceMaxSimTime = 60 * sim.Millisecond

// Lifecycle labels of the sweep's policy axis.
const (
	// LifecycleNoRetry arms only the attempt deadline: expired or killed
	// attempts drop immediately.
	LifecycleNoRetry = "no-retry"
	// LifecycleNaive retries every failure up to the attempt cap with near-no
	// backoff and no budget — the classic retry-storm configuration.
	LifecycleNaive = "naive-retry"
	// LifecycleGuarded is the full treatment: budgeted backoff retries,
	// hedged stragglers, per-GPU circuit breakers and admission control.
	LifecycleGuarded = "guarded"
)

// resilienceConfigs returns the swept lifecycle policies. All three share
// the same attempt deadline, so the rows differ exclusively through what
// happens after an attempt fails.
func resilienceConfigs() []struct {
	label string
	spec  *resilience.Spec
} {
	return []struct {
		label string
		spec  *resilience.Spec
	}{
		{LifecycleNoRetry, &resilience.Spec{Timeout: resilienceTimeout}},
		{LifecycleNaive, &resilience.Spec{
			Timeout: resilienceTimeout,
			Retry: &resilience.RetryPolicy{
				MaxAttempts: 8,
				BackoffBase: 2 * sim.Microsecond,
				BackoffMax:  8 * sim.Microsecond,
			},
		}},
		{LifecycleGuarded, &resilience.Spec{
			Timeout: resilienceTimeout,
			Retry: &resilience.RetryPolicy{
				MaxAttempts: 4,
				BackoffBase: 20 * sim.Microsecond,
				Budget:      &resilience.Budget{Tokens: 20, Ratio: 0.1},
			},
			Hedge:   &resilience.HedgePolicy{Quantile: 0.95, MinObs: 16},
			Breaker: &resilience.BreakerPolicy{ErrorRate: 0.5},
			Shed:    &resilience.ShedPolicy{PerNode: 12, Queue: 24},
		}},
	}
}

// resiliencePatterns returns the swept load shapes: a steady stream the
// fleet can absorb (failure handling is the only stressor) and the elastic
// sweep's flash crowd, whose burst overloads even the full fleet (retry
// amplification meets genuine congestion).
func resiliencePatterns() []arrivalPattern {
	return []arrivalPattern{
		{"steady", []arrivals.Phase{{RateFactor: 0.6, Duration: loadHorizon / 5}}},
		autoscalePatterns()[1],
	}
}

// ResilienceRow is one cell of the resilience sweep: one load shape under
// one fault-injection rate with one request-lifecycle policy.
type ResilienceRow struct {
	// Pattern is the load shape label; KillRate the injected node kills per
	// simulated second; Config the lifecycle policy label.
	Pattern  string
	KillRate float64
	Config   string
	// Requests counts offered arrivals; Done of them completed, Dropped were
	// abandoned (timeout or kill with no retry left), Shed were refused by
	// admission control.
	Requests, Done, Dropped, Shed int
	// Timeouts/Retries/Hedges/Trips count attempt-level lifecycle events.
	Timeouts, Retries, Hedges, Trips int
	// RTMissRate is the rt class's fleet-wide deadline-miss rate.
	RTMissRate float64
	// RTGoodput is the rt class's SLO-compliant completions per simulated
	// second — the sweep's headline metric.
	RTGoodput float64
	// Goodput is fleet-wide SLO-compliant completions per simulated second.
	Goodput float64
}

// ResilienceResult is the data behind the resilience sweep.
type ResilienceResult struct {
	// RatePerSec is the base offered load the phase factors multiply.
	RatePerSec float64
	Rows       []ResilienceRow
}

// Row returns the cell for a pattern, kill rate and lifecycle config.
func (r *ResilienceResult) Row(pattern string, killRate float64, config string) (ResilienceRow, bool) {
	for _, row := range r.Rows {
		if row.Pattern == pattern && row.KillRate == killRate && row.Config == config {
			return row, true
		}
	}
	return ResilienceRow{}, false
}

// Table renders the sweep: per load shape and kill rate, what each lifecycle
// policy does to the rt class's goodput — does retrying recover kill losses,
// and does unbounded retrying melt down under overload?
func (r *ResilienceResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Resilience sweep: %.0f req/s base (Poisson x phases, rt/batch classes) under PPQ+adaptive, %d GPUs jsq, pattern x kill rate x lifecycle policy",
			r.RatePerSec, resilienceNodes),
		Header: []string{"pattern", "kills/s", "lifecycle", "requests", "done", "dropped", "shed",
			"timeouts", "retries", "hedges", "trips", "rt-miss", "rt-goodput", "goodput"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Pattern,
			fmt.Sprintf("%.0f", row.KillRate),
			row.Config,
			fmt.Sprintf("%d", row.Requests),
			fmt.Sprintf("%d", row.Done),
			fmt.Sprintf("%d", row.Dropped),
			fmt.Sprintf("%d", row.Shed),
			fmt.Sprintf("%d", row.Timeouts),
			fmt.Sprintf("%d", row.Retries),
			fmt.Sprintf("%d", row.Hedges),
			fmt.Sprintf("%d", row.Trips),
			fmt.Sprintf("%.3f", row.RTMissRate),
			fmt.Sprintf("%.0f", row.RTGoodput),
			fmt.Sprintf("%.0f", row.Goodput),
		})
	}
	return t
}

// RunResilience sweeps load shape x kill rate x request-lifecycle policy on
// a fixed jsq fleet. Every cell of one shape replays the identical arrival
// trace, so within a shape the rows differ exclusively through injected
// faults and lifecycle policy. Cells run on the shared concurrent runner and
// aggregate in submission order: the table is byte-identical at any worker
// count.
func RunResilience(o Options) (*ResilienceResult, error) {
	h := NewHarness(o)
	o = h.Opts
	rate := peakLoadRate(o.Scale)

	confs := resilienceConfigs()

	type resilienceJob struct {
		pattern  string
		tr       *trace.ArrivalTrace
		killRate float64
		label    string
		spec     *resilience.Spec
	}
	var jobs []resilienceJob
	for pi, p := range resiliencePatterns() {
		tr, err := h.poissonStream(rate, loadClasses(h.Suite), p.phases, resilienceSweepSeedTag, uint64(pi))
		if err != nil {
			return nil, err
		}
		for _, kr := range resilienceKillRates {
			for _, cf := range confs {
				jobs = append(jobs, resilienceJob{
					pattern: p.label, tr: tr, killRate: kr, label: cf.label, spec: cf.spec,
				})
			}
		}
	}

	results, err := mapCells(o, len(jobs), func(i int) (*cluster.Result, error) {
		j := jobs[i]
		// fleetConfig passes ParWindow through although the resilience layer
		// forces the lockstep reference: it keeps the grids uniform (and pins
		// that the fallback is byte-identical in the golden tests).
		rc, err := h.fleetConfig(cluster.KindJSQ, adaptive)
		if err != nil {
			return nil, err
		}
		rc.Nodes, rc.Resilience, rc.MaxSimTime = resilienceNodes, j.spec, resilienceMaxSimTime
		if j.killRate > 0 {
			rc.Faults = &cluster.FaultSpec{KillRate: j.killRate}
		}
		res, err := cluster.Run(j.tr, rc)
		if err != nil {
			return nil, fmt.Errorf("experiments: resilience %s kill=%g %s: %w", j.pattern, j.killRate, j.label, err)
		}
		return res, nil
	}, func(i int, res *cluster.Result) string {
		j := jobs[i]
		return fmt.Sprintf("%-7s kill=%-5.0f %-12s done=%-5d dropped=%-4d retries=%-4d trips=%d",
			j.pattern, j.killRate, j.label, res.ReqCompleted, res.Dropped, res.Retries, res.BreakerTrips)
	})
	if err != nil {
		return nil, err
	}

	out := &ResilienceResult{RatePerSec: rate}
	for i, res := range results {
		j := jobs[i]
		rt := &res.Classes[0]
		rtGoodput := 0.0
		if res.EndTime > 0 {
			rtGoodput = float64(rt.Completed-rt.Missed) / res.EndTime.Seconds()
		}
		out.Rows = append(out.Rows, ResilienceRow{
			Pattern:    j.pattern,
			KillRate:   j.killRate,
			Config:     j.label,
			Requests:   res.Requests,
			Done:       res.ReqCompleted,
			Dropped:    res.Dropped,
			Shed:       res.Shed,
			Timeouts:   res.TimedOut,
			Retries:    res.Retries,
			Hedges:     res.Hedges,
			Trips:      res.BreakerTrips,
			RTMissRate: rt.MissRate(),
			RTGoodput:  rtGoodput,
			Goodput:    res.Goodput,
		})
	}
	return out, nil
}
