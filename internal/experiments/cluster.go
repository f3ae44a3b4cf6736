package experiments

import (
	"fmt"

	"repro/internal/arrivals"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/pcie"
	"repro/internal/policy"
	"repro/internal/preempt"
	"repro/internal/rng"
)

// clusterSeedTag namespaces the cluster sweep's arrival-stream seed.
const clusterSeedTag = 0xF1EE

// DefaultClusterGPUs returns the swept fleet sizes: the single machine every
// other experiment uses, plus doubling steps of the same machine.
func DefaultClusterGPUs() []int { return []int{1, 2, 4} }

// clusterDispatchers lists the swept placement policies in report order.
// p2c stays out of the grid (it tracks jsq closely) but remains available
// through the CLIs.
var clusterDispatchers = []cluster.Kind{
	cluster.KindRoundRobin,
	cluster.KindJSQ,
	cluster.KindLeastLoaded,
	cluster.KindClassAffinity,
}

// SingleGPUDispatch is the dispatch label of single-machine rows, where
// placement has no choice to make.
const SingleGPUDispatch = "-"

// ClusterRow is one cell of the cluster sweep: one fleet size, dispatch
// policy and preemption mechanism at the fixed offered load.
type ClusterRow struct {
	// GPUs is the fleet size; Dispatch is the placement policy
	// (SingleGPUDispatch for one GPU, where it is irrelevant).
	GPUs     int
	Dispatch string
	// Mechanism is the per-GPU preemption mechanism label.
	Mechanism string
	// Admitted/Completed/InFlight are fleet-wide request counts.
	Admitted, Completed, InFlight int
	// RTWaitP95Us is the rt class's p95 queueing latency in microseconds.
	RTWaitP95Us float64
	// RTLatP50Us/P95/P99 are the rt class's completion-latency percentiles.
	RTLatP50Us, RTLatP95Us, RTLatP99Us float64
	// RTMissRate is the rt class's fleet-wide deadline-miss rate.
	RTMissRate float64
	// Goodput is fleet-wide SLO-compliant completions per simulated second.
	Goodput float64
	// Utilization is the mean SM busy fraction across the fleet.
	Utilization float64
}

// ClusterResult is the data behind the cluster sweep.
type ClusterResult struct {
	// GPUs are the swept fleet sizes, ascending.
	GPUs []int
	// RatePerSec is the fixed offered load every cell serves.
	RatePerSec float64
	Rows       []ClusterRow
}

// Row returns the cell for a fleet size, dispatch policy and mechanism.
func (r *ClusterResult) Row(gpus int, dispatch, mech string) (ClusterRow, bool) {
	for _, row := range r.Rows {
		if row.GPUs == gpus && row.Dispatch == dispatch && row.Mechanism == mech {
			return row, true
		}
	}
	return ClusterRow{}, false
}

// Table renders the sweep: per fleet size, how each dispatch policy and
// preemption mechanism trade the rt class's tail latency and deadline misses
// against goodput at the same offered load — does adding a GPU beat
// upgrading the mechanism?
func (r *ClusterResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Cluster sweep: %0.f req/s (Poisson, rt/batch classes over the Parboil kernel mix) under PPQ, GPU count x dispatch x mechanism", r.RatePerSec),
		Header: []string{"gpus", "dispatch", "mechanism", "admitted", "done", "inflight",
			"rt-wait-p95(us)", "rt-p50(us)", "rt-p95(us)", "rt-p99(us)", "rt-miss", "goodput(req/s)", "util"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.GPUs),
			row.Dispatch,
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

// fleetConfig returns the base cluster configuration the fleet grids share:
// the harness machine, PPQ on every node, the given preemption mechanism,
// Options.ParWindow, and a fresh dispatcher of the given kind seeded from
// Options.Seed. Callers fill in the fleet shape and any fleet policies.
func (h *Harness) fleetConfig(kind cluster.Kind, mech func() core.Mechanism) (cluster.RunConfig, error) {
	disp, err := cluster.NewDispatcher(kind, h.Opts.Seed)
	if err != nil {
		return cluster.RunConfig{}, err
	}
	return cluster.RunConfig{
		Sys:        h.runConfig(pcie.FCFS{}).Sys,
		Dispatcher: disp,
		Policy:     func(n int) core.Policy { return policy.NewPPQ(false) },
		Mechanism:  mech,
		Parallel:   h.Opts.ParWindow,
	}, nil
}

// adaptive builds the adaptive preemption mechanism, the one the fleet
// grids other than RunCluster hold fixed.
func adaptive() core.Mechanism { return preempt.NewAdaptive() }

// RunCluster sweeps fleet size x dispatch policy x preemption mechanism at a
// fixed offered load (the peak of the load sweep: a rate that overloads one
// machine). Every cell replays the identical arrival trace, so rows differ
// exclusively through placement and scheduling; single-GPU rows collapse the
// dispatch axis (every policy routes to node 0). Cells run on the shared
// concurrent runner and aggregate in submission order: the table is
// byte-identical at any worker count. gpus == nil sweeps DefaultClusterGPUs.
func RunCluster(o Options, gpus []int) (*ClusterResult, error) {
	h := NewHarness(o)
	o = h.Opts
	if gpus == nil {
		gpus = DefaultClusterGPUs()
	}
	rates := DefaultLoadRates(o.Scale)
	rate := rates[len(rates)-1]
	classes := loadClasses(h.Suite)

	tr, err := arrivals.Generate(arrivals.GenSpec{
		Process: arrivals.ProcPoisson,
		Rate:    rate,
		Horizon: loadHorizon,
		Seed:    rng.SeedFrom(o.Seed, clusterSeedTag),
		Classes: classes,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: generating cluster load %g/s: %w", rate, err)
	}

	confs := mechConfs()

	type clusterJob struct {
		gpus     int
		dispatch cluster.Kind
		label    string
		mech     mechConf
	}
	var jobs []clusterJob
	for _, g := range gpus {
		disps := clusterDispatchers
		if g == 1 {
			disps = clusterDispatchers[:1] // placement is irrelevant on one GPU
		}
		for _, d := range disps {
			label := string(d)
			if g == 1 {
				label = SingleGPUDispatch
			}
			for _, mc := range confs {
				jobs = append(jobs, clusterJob{gpus: g, dispatch: d, label: label, mech: mc})
			}
		}
	}

	results, err := mapCells(o, len(jobs), func(i int) (*cluster.Result, error) {
		j := jobs[i]
		rc, err := h.fleetConfig(j.dispatch, j.mech.mk)
		if err != nil {
			return nil, err
		}
		rc.Nodes = j.gpus
		res, err := cluster.Run(tr, rc)
		if err != nil {
			return nil, fmt.Errorf("experiments: cluster %d GPUs %s %s: %w", j.gpus, j.label, j.mech.label, err)
		}
		return res, nil
	}, func(i int, res *cluster.Result) string {
		j := jobs[i]
		return fmt.Sprintf("gpus=%d %-14s %-14s done=%-5d end=%-12v util=%.2f",
			j.gpus, j.label, j.mech.label, res.Completed, res.EndTime, res.Utilization)
	})
	if err != nil {
		return nil, err
	}

	out := &ClusterResult{GPUs: gpus, RatePerSec: rate}
	for i, res := range results {
		j := jobs[i]
		rt := &res.Classes[0]
		out.Rows = append(out.Rows, ClusterRow{
			GPUs:        j.gpus,
			Dispatch:    j.label,
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
