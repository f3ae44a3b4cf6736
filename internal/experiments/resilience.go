package experiments

import (
	"fmt"

	"repro/internal/arrivals"
	"repro/internal/cluster"
	"repro/internal/resilience"
	"repro/internal/sim"
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

// ResilienceResult is the data behind the resilience sweep. A row's labels
// are the load shape, the injected node kills per simulated second and the
// lifecycle policy.
type ResilienceResult struct {
	// RatePerSec is the base offered load the phase factors multiply.
	RatePerSec float64
	Rows       []FleetRow
}

// Table renders the sweep: per load shape and kill rate, what each lifecycle
// policy does to the rt class's goodput — does retrying recover kill losses,
// and does unbounded retrying melt down under overload? Requests counts
// offered arrivals; done of them completed, dropped were abandoned (timeout
// or kill with no retry left), shed were refused by admission control.
func (r *ResilienceResult) Table() *Table {
	return fleetTable(
		fmt.Sprintf("Resilience sweep: %.0f req/s base (Poisson x phases, rt/batch classes) under PPQ+adaptive, %d GPUs jsq, pattern x kill rate x lifecycle policy",
			r.RatePerSec, resilienceNodes),
		[]string{"pattern", "kills/s", "lifecycle", "requests", "done", "dropped", "shed",
			"timeouts", "retries", "hedges", "trips", "rt-miss", "rt-goodput", "goodput"},
		r.Rows, func(res *cluster.Result) []string {
			return []string{
				fmt.Sprintf("%d", res.Requests),
				fmt.Sprintf("%d", res.ReqCompleted),
				fmt.Sprintf("%d", res.Dropped),
				fmt.Sprintf("%d", res.Shed),
				fmt.Sprintf("%d", res.TimedOut),
				fmt.Sprintf("%d", res.Retries),
				fmt.Sprintf("%d", res.Hedges),
				fmt.Sprintf("%d", res.BreakerTrips),
				fmt.Sprintf("%.3f", res.Classes[0].MissRate()),
				fmt.Sprintf("%.0f", rtGoodput(res)),
				fmt.Sprintf("%.0f", res.Goodput),
			}
		})
}

// rtGoodput is the rt class's SLO-compliant completions per simulated
// second — the resilience sweep's headline metric.
func rtGoodput(res *cluster.Result) float64 {
	if res.EndTime <= 0 {
		return 0
	}
	rt := &res.Classes[0]
	return float64(rt.Completed-rt.Missed) / res.EndTime.Seconds()
}

// RunResilience sweeps load shape x kill rate x request-lifecycle policy on
// a fixed jsq fleet. Every cell of one shape replays the identical arrival
// trace, so within a shape the rows differ exclusively through injected
// faults and lifecycle policy. Cells run on the shared concurrent runner and
// aggregate in submission order: the table is byte-identical at any worker
// count.
func RunResilience(o Options) (*ResilienceResult, error) {
	h := NewHarness(o)
	rate := peakLoadRate(h.Opts.Scale)

	var cells []fleetCell
	for pi, p := range resiliencePatterns() {
		tr, err := h.poissonStream(rate, loadClasses(h.Suite), p.phases, resilienceSweepSeedTag, uint64(pi))
		if err != nil {
			return nil, err
		}
		for _, kr := range resilienceKillRates {
			for _, cf := range resilienceConfigs() {
				// fleetConfig passes ParWindow through although the
				// resilience layer forces the lockstep reference: it keeps
				// the grids uniform (and pins that the fallback is
				// byte-identical in the golden tests).
				rc, err := h.fleetConfig(cluster.KindJSQ, adaptive)
				if err != nil {
					return nil, err
				}
				rc.Nodes, rc.Resilience, rc.MaxSimTime = resilienceNodes, cf.spec, resilienceMaxSimTime
				if kr > 0 {
					rc.Faults = &cluster.FaultSpec{KillRate: kr}
				}
				cells = append(cells, fleetCell{[]string{p.label, fmt.Sprintf("%.0f", kr), cf.label}, tr, rc})
			}
		}
	}
	rows, err := h.runFleet("resilience", cells)
	if err != nil {
		return nil, err
	}
	return &ResilienceResult{RatePerSec: rate, Rows: rows}, nil
}
