package experiments

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/preempt"
	"repro/internal/trace"
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

// FleetRow is one cell of a fleet grid: its coordinates on the grid's axes,
// rendered in the table's leading columns, and the fleet result it measured.
type FleetRow struct {
	Labels []string
	*cluster.Result
}

// ClusterResult is the data behind the cluster sweep. A row's labels are the
// fleet size, the dispatch policy (SingleGPUDispatch for one GPU, where it is
// irrelevant) and the preemption mechanism.
type ClusterResult struct {
	// GPUs are the swept fleet sizes, ascending.
	GPUs []int
	// RatePerSec is the fixed offered load every cell serves.
	RatePerSec float64
	Rows       []FleetRow
}

// Table renders the sweep: per fleet size, how each dispatch policy and
// preemption mechanism trade the rt class's tail latency and deadline misses
// against goodput at the same offered load — does adding a GPU beat
// upgrading the mechanism? Request counts and rt outcomes are fleet-wide,
// utilization the mean across nodes.
func (r *ClusterResult) Table() *Table {
	return fleetTable(
		fmt.Sprintf("Cluster sweep: %0.f req/s (Poisson, rt/batch classes over the Parboil kernel mix) under PPQ, GPU count x dispatch x mechanism", r.RatePerSec),
		append([]string{"gpus", "dispatch", "mechanism"}, rtHeader...), r.Rows,
		func(res *cluster.Result) []string {
			return rtCells(&res.Classes[0], res.Admitted, res.Completed, res.InFlight, res.Goodput, res.Utilization)
		})
}

// fleetTable renders a fleet grid: each row's labels followed by the cells
// its result renders to. The labels are clipped so the append copies them
// instead of writing into the row.
func fleetTable(title string, header []string, rows []FleetRow, cells func(*cluster.Result) []string) *Table {
	t := &Table{Title: title, Header: header}
	for _, row := range rows {
		t.Rows = append(t.Rows, append(slices.Clip(row.Labels), cells(row.Result)...))
	}
	return t
}

// fleetCell is one simulation of a fleet grid: its labels, the arrival
// stream it replays and the fleet it runs on.
type fleetCell struct {
	labels []string
	tr     *trace.ArrivalTrace
	rc     cluster.RunConfig
}

// runFleet runs the cells of the named fleet grid on the shared concurrent
// runner and returns one row per cell, in cell order.
func (h *Harness) runFleet(grid string, cells []fleetCell) ([]FleetRow, error) {
	results, err := mapCells(h.Opts, len(cells), func(i int) (*cluster.Result, error) {
		c := cells[i]
		res, err := cluster.Run(c.tr, c.rc)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s %s: %w", grid, strings.Join(c.labels, " "), err)
		}
		return res, nil
	}, func(i int, res *cluster.Result) string {
		return fmt.Sprintf("%s %-36s done=%-5d end=%-12v util=%.2f",
			grid, strings.Join(cells[i].labels, " "), res.Completed, res.EndTime, res.Utilization)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]FleetRow, len(cells))
	for i, res := range results {
		rows[i] = FleetRow{Labels: cells[i].labels, Result: res}
	}
	return rows, nil
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
		Sys:        h.runConfig(false).Sys,
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
	if gpus == nil {
		gpus = DefaultClusterGPUs()
	}
	rate := peakLoadRate(h.Opts.Scale)
	tr, err := h.poissonStream(rate, loadClasses(h.Suite), nil, clusterSeedTag)
	if err != nil {
		return nil, err
	}

	var cells []fleetCell
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
			for _, mc := range mechConfs() {
				rc, err := h.fleetConfig(d, mc.mk)
				if err != nil {
					return nil, err
				}
				rc.Nodes = g
				cells = append(cells, fleetCell{[]string{fmt.Sprintf("%d", g), label, mc.label}, tr, rc})
			}
		}
	}
	rows, err := h.runFleet("cluster", cells)
	if err != nil {
		return nil, err
	}
	return &ClusterResult{GPUs: gpus, RatePerSec: rate, Rows: rows}, nil
}
