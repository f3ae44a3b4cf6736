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

// MemoryRow is one cell of the memory grid: one HBM regime served through
// one dispatch policy under one oversubscription discipline.
type MemoryRow struct {
	// Regime is the HBM-capacity label; Dispatch the placement policy; Mem
	// the oversubscription discipline ("block" or "swap").
	Regime   string
	Dispatch string
	Mem      string
	// Admitted/Completed are fleet-wide dispatch-attempt counts.
	Admitted, Completed int
	// Spills counts working sets that did not fit at admission and swapped
	// out; SwapIns the completed swap-back-ins; SwapOutMiB the spilled
	// traffic (all zero in block mode, where oversubscribed requests wait).
	Spills, SwapIns int
	SwapOutMiB      float64
	// RTLatP99Us is the rt class's p99 completion latency in microseconds.
	RTLatP99Us float64
	// RTMissRate is the rt class's fleet-wide deadline-miss rate.
	RTMissRate float64
	// Goodput is fleet-wide SLO-compliant completions per simulated second.
	Goodput float64
}

// MemoryResult is the data behind the memory grid.
type MemoryResult struct {
	// RatePerSec is the offered load every cell serves.
	RatePerSec float64
	Rows       []MemoryRow
}

// Table renders the grid: per HBM regime, what memory-blind vs memory-aware
// placement costs the rt class under admission blocking and under swap.
func (r *MemoryResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Memory grid: %.0f req/s (Poisson, rt/batch classes, %d/%d MiB working sets) under PPQ+adaptive, 4 nodes, regime x dispatch x mem mode",
			r.RatePerSec, memoryRTWS>>20, memoryBatchWS>>20),
		Header: []string{"regime", "dispatch", "mem", "admitted", "done",
			"spills", "swap-ins", "swap-out(MiB)", "rt-p99(us)", "rt-miss", "goodput(req/s)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Regime,
			row.Dispatch,
			row.Mem,
			fmt.Sprintf("%d", row.Admitted),
			fmt.Sprintf("%d", row.Completed),
			fmt.Sprintf("%d", row.Spills),
			fmt.Sprintf("%d", row.SwapIns),
			fmt.Sprintf("%.1f", row.SwapOutMiB),
			fmt.Sprintf("%.1f", row.RTLatP99Us),
			fmt.Sprintf("%.3f", row.RTMissRate),
			fmt.Sprintf("%.0f", row.Goodput),
		})
	}
	return t
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
	o = h.Opts
	// The peak load-sweep rate: backlogs build on every node, so the sum of
	// placed working sets far exceeds the tight nodes' HBM and the memory
	// discipline — not compute — decides the rt tail in the scarce regime.
	rate := peakLoadRate(o.Scale)
	tr, err := h.poissonStream(rate, memoryClasses(h.Suite), nil, memorySeedTag)
	if err != nil {
		return nil, err
	}

	type regimeConf struct {
		label string
		hbm   int64              // homogeneous capacity (0 = use types)
		types []cluster.NodeType // heterogeneous capacities
	}
	regimes := []regimeConf{
		{label: "ample", hbm: memoryAmpleHBM},
		{label: "scarce", types: []cluster.NodeType{
			{Count: memoryFleetSize / 2, HBMBytes: memoryRoomyHBM},
			{Count: memoryFleetSize / 2, HBMBytes: memoryTightHBM},
		}},
	}
	dispatches := []cluster.Kind{cluster.KindLeastLoaded, cluster.KindLeastLoadedFits}
	memModes := []bool{false, true} // block, swap

	type memoryJob struct {
		regime regimeConf
		disp   cluster.Kind
		swap   bool
	}
	var jobs []memoryJob
	for _, rg := range regimes {
		for _, d := range dispatches {
			for _, swap := range memModes {
				jobs = append(jobs, memoryJob{regime: rg, disp: d, swap: swap})
			}
		}
	}

	results, err := mapCells(o, len(jobs), func(i int) (*cluster.Result, error) {
		j := jobs[i]
		rc, err := h.fleetConfig(j.disp, adaptive)
		if err != nil {
			return nil, err
		}
		rc.NodeTypes, rc.Swap = j.regime.types, j.swap
		if len(rc.NodeTypes) == 0 {
			rc.Nodes, rc.Sys.GPU.MemSize = memoryFleetSize, j.regime.hbm
		}
		res, err := cluster.Run(tr, rc)
		if err != nil {
			return nil, fmt.Errorf("experiments: memory %s %s swap=%v: %w", j.regime.label, j.disp, j.swap, err)
		}
		return res, nil
	}, func(i int, res *cluster.Result) string {
		j := jobs[i]
		return fmt.Sprintf("%-7s %-18s swap=%-5v done=%-5d spills=%-4d",
			j.regime.label, j.disp, j.swap, res.Completed, res.Spills)
	})
	if err != nil {
		return nil, err
	}

	out := &MemoryResult{RatePerSec: rate}
	for i, res := range results {
		j := jobs[i]
		mem := "block"
		if j.swap {
			mem = "swap"
		}
		rt := &res.Classes[0]
		out.Rows = append(out.Rows, MemoryRow{
			Regime:     j.regime.label,
			Dispatch:   string(j.disp),
			Mem:        mem,
			Admitted:   res.Admitted,
			Completed:  res.Completed,
			Spills:     res.Spills,
			SwapIns:    res.SwapIns,
			SwapOutMiB: float64(res.SwapOutBytes) / (1 << 20),
			RTLatP99Us: rt.Latency.Quantile(0.99).Microseconds(),
			RTMissRate: rt.MissRate(),
			Goodput:    res.Goodput,
		})
	}
	return out, nil
}
