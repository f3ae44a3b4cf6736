package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/pcie"
	"repro/internal/preempt"
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
	// rtStats are fleet-wide: request counts and rt outcomes summed across
	// nodes, utilization the mean across them.
	rtStats
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
		Title:  fmt.Sprintf("Cluster sweep: %0.f req/s (Poisson, rt/batch classes over the Parboil kernel mix) under PPQ, GPU count x dispatch x mechanism", r.RatePerSec),
		Header: append([]string{"gpus", "dispatch", "mechanism"}, rtStatsHeader...),
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, append([]string{fmt.Sprintf("%d", row.GPUs), row.Dispatch, row.Mechanism}, row.cells()...))
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
		Policy:     ppq,
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
	rate := peakLoadRate(o.Scale)
	tr, err := h.poissonStream(rate, loadClasses(h.Suite), nil, clusterSeedTag)
	if err != nil {
		return nil, err
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
		out.Rows = append(out.Rows, ClusterRow{GPUs: j.gpus, Dispatch: j.label, Mechanism: j.mech.label,
			rtStats: newRTStats(&res.Classes[0], res.Admitted, res.Completed, res.InFlight, res.Goodput, res.Utilization)})
	}
	return out, nil
}
