package experiments

import (
	"fmt"

	"repro/internal/arrivals"
	"repro/internal/cluster"
	"repro/internal/trace"
)

// memorySeedTag namespaces the memory grid's arrival stream: one trace,
// replayed identically by every cell.
const memorySeedTag = 0x3E3A

// The grid's explicit per-class working sets. The suite's micro apps move no
// bulk data (their traces are launch+sync), so the device footprint is pinned
// via trace.App.WorkingSet: small for the latency-sensitive rt requests,
// several times larger for batch — the skew that makes placement matter.
const (
	memoryRTWS    = 1 << 20 // 1 MiB
	memoryBatchWS = 6 << 20 // 6 MiB
)

// The HBM regimes. Ample gives every node more memory than the whole
// offered working set, so the ledger never binds and the memory modes are
// inert. Scarce is a heterogeneous fleet — two roomy nodes and two tight
// ones barely larger than the biggest working set — whose aggregate HBM the
// offered load oversubscribes, so admission blocking (or swap) is the
// binding constraint and memory-blind placement pays for it.
const (
	memoryAmpleHBM  = 1 << 30 // 1 GiB per node
	memoryRoomyHBM  = 40 << 20
	memoryTightHBM  = 10 << 20
	memoryFleetSize = 4
)

// MemoryResult is the data behind the memory grid. A row's labels are the
// HBM regime, the dispatch policy and the oversubscription discipline
// ("block" or "swap").
type MemoryResult struct {
	// RatePerSec is the offered load every cell serves.
	RatePerSec float64
	Rows       []FleetRow
}

// Table renders the grid: per HBM regime, what memory-blind vs memory-aware
// placement costs the rt class under admission blocking and under swap.
// Spills count working sets that did not fit at admission and swapped out,
// swap-ins the completed swap-back-ins (both zero in block mode, where
// oversubscribed requests wait).
func (r *MemoryResult) Table() *Table {
	return fleetTable(
		fmt.Sprintf("Memory grid: %.0f req/s (Poisson, rt/batch classes, %d/%d MiB working sets) under PPQ+adaptive, 4 nodes, regime x dispatch x mem mode",
			r.RatePerSec, memoryRTWS>>20, memoryBatchWS>>20),
		[]string{"regime", "dispatch", "mem", "admitted", "done",
			"spills", "swap-ins", "swap-out(MiB)", "rt-p99(us)", "rt-miss", "goodput(req/s)"},
		r.Rows, func(res *cluster.Result) []string {
			rt := &res.Classes[0]
			return []string{
				fmt.Sprintf("%d", res.Admitted),
				fmt.Sprintf("%d", res.Completed),
				fmt.Sprintf("%d", res.Spills),
				fmt.Sprintf("%d", res.SwapIns),
				fmt.Sprintf("%.1f", float64(res.SwapOutBytes)/(1<<20)),
				fmt.Sprintf("%.1f", rt.Latency.Quantile(0.99).Microseconds()),
				fmt.Sprintf("%.3f", rt.MissRate()),
				fmt.Sprintf("%.0f", res.Goodput),
			}
		})
}

// memoryClasses builds the rt/batch class split with explicit working-set
// overrides on cloned micro apps, leaving the shared suite untouched.
func memoryClasses(suite []*trace.App) []arrivals.ClassSpec {
	micro := arrivals.MicroApps(suite)
	var short, long []arrivals.AppChoice
	for _, c := range micro {
		a := c.App.Clone()
		if a.Kernels[0].TBTime <= loadShortTB {
			a.WorkingSet = memoryRTWS
			c.App = a
			short = append(short, c)
		} else {
			a.WorkingSet = memoryBatchWS
			c.App = a
			long = append(long, c)
		}
	}
	return []arrivals.ClassSpec{
		{Name: "rt", Priority: 1, Weight: 1, Deadline: loadDeadline, Apps: short},
		{Name: "batch", Priority: 0, Weight: 3, Apps: long},
	}
}

// RunMemory sweeps HBM regime x dispatch policy x oversubscription
// discipline on one Poisson stream whose requests carry explicit working
// sets. Every cell replays the identical arrivals, so rows differ
// exclusively through memory capacity, placement and the block-vs-swap
// discipline: the ample rows pin that plentiful HBM makes the modes inert,
// and the scarce rows pin the tentpole claim — memory-aware dispatch
// (least-loaded-fits) beats memory-blind least-loaded on rt tail latency
// and goodput when working sets oversubscribe the fleet. Cells run on the
// shared concurrent runner and aggregate in submission order: the table is
// byte-identical at any worker count.
func RunMemory(o Options) (*MemoryResult, error) {
	h := NewHarness(o)
	// The peak load-sweep rate: backlogs build on every node, so the sum of
	// placed working sets far exceeds the tight nodes' HBM and the memory
	// discipline — not compute — decides the rt tail in the scarce regime.
	rate := peakLoadRate(h.Opts.Scale)
	tr, err := h.poissonStream(rate, memoryClasses(h.Suite), nil, memorySeedTag)
	if err != nil {
		return nil, err
	}

	regimes := []struct {
		label string
		hbm   int64              // homogeneous capacity (0 = use types)
		types []cluster.NodeType // heterogeneous capacities
	}{
		{label: "ample", hbm: memoryAmpleHBM},
		{label: "scarce", types: []cluster.NodeType{
			{Count: memoryFleetSize / 2, HBMBytes: memoryRoomyHBM},
			{Count: memoryFleetSize / 2, HBMBytes: memoryTightHBM},
		}},
	}
	var cells []fleetCell
	for _, rg := range regimes {
		for _, d := range []cluster.Kind{cluster.KindLeastLoaded, cluster.KindLeastLoadedFits} {
			for _, mem := range []string{"block", "swap"} {
				rc, err := h.fleetConfig(d, adaptive)
				if err != nil {
					return nil, err
				}
				rc.NodeTypes, rc.Swap = rg.types, mem == "swap"
				if len(rc.NodeTypes) == 0 {
					rc.Nodes, rc.Sys.GPU.MemSize = memoryFleetSize, rg.hbm
				}
				cells = append(cells, fleetCell{[]string{rg.label, string(d), mem}, tr, rc})
			}
		}
	}
	rows, err := h.runFleet("memory", cells)
	if err != nil {
		return nil, err
	}
	return &MemoryResult{RatePerSec: rate, Rows: rows}, nil
}
