package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/policy"
)

// MPSResult compares spatial-sharing configurations on random workloads
// without priorities: the software sharing solution the paper discusses in
// §2.1 — NVIDIA MPS, where a proxy process runs all clients in one GPU
// context — against serialized FCFS contexts and the paper's DSS, and static
// spatial partitioning (Adriaens et al., which §5 contrasts with this paper)
// against DSS. MPS regains cross-process concurrency (back-to-back execution
// on the FCFS engine) but cannot enforce per-process scheduling and breaks
// memory isolation; DSS achieves concurrency with isolation intact. Static
// partitions idle whenever their owner is between kernels, where DSS
// repartitions dynamically and lets kernels go into token debt to soak up
// idle SMs.
type MPSResult struct {
	Sizes []int
	title string
	confs []string
	mean  *meanAgg[fig7Key]
}

// MPS configuration labels.
const (
	ConfMPS = "MPS (shared context)"
)

// dssCS is DSS with the context-switch mechanism, the reference
// configuration of both sharing grids.
var dssCS = gridConf{label: ConfDSSCS, pol: dss, mk: contextSwitch}

// Table renders the comparison.
func (r *MPSResult) Table() *Table {
	t := &Table{
		Title:  r.title,
		Header: []string{"procs", "config", "ANTT", "STP", "fairness"},
	}
	for _, size := range r.Sizes {
		for _, conf := range r.confs {
			row := []string{fmt.Sprintf("%d", size), conf}
			for _, m := range []string{"ANTT", "STP", "fairness"} {
				row = append(row, r.mean.cell(fig7Key{Conf: conf + "/" + m, Size: size}, "%.3f"))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// RunMPS compares MPS against serialized FCFS contexts and DSS.
func RunMPS(o Options) (*MPSResult, error) {
	return runSharing(o, "MPS comparison: shared-context software sharing vs FCFS and DSS", []gridConf{
		{label: ConfFCFS, pol: fcfs},
		{label: ConfMPS, pol: fcfs, mps: true},
		dssCS,
	})
}

// RunStaticVsDSS compares static spatial partitioning against DSS. With
// heterogeneous applications DSS should win on STP and ANTT.
func RunStaticVsDSS(o Options) (*MPSResult, error) {
	return runSharing(o, "Static spatial partitioning (Adriaens et al.) vs DSS", []gridConf{
		{label: "Static partition", pol: func(n int) core.Policy { return policy.NewStatic(n) }},
		dssCS,
	})
}

// runSharing runs the size x workload x configuration grid on the shared
// runner and reports each configuration's mean ANTT, STP and fairness.
func runSharing(o Options, title string, confs []gridConf) (*MPSResult, error) {
	h := NewHarness(o)
	res := &MPSResult{Sizes: h.Opts.Sizes, title: title, mean: newMeanAgg[fig7Key]()}
	for _, c := range confs {
		res.confs = append(res.confs, c.label)
	}
	grid, err := h.runGrid(h.Opts.Sizes, false, h.confJobs(confs))
	if err != nil {
		return nil, err
	}
	for _, w := range grid {
		for i, sum := range w.scores {
			res.mean.add(fig7Key{Conf: confs[i].label + "/ANTT", Size: w.size}, sum.ANTT)
			res.mean.add(fig7Key{Conf: confs[i].label + "/STP", Size: w.size}, sum.STP)
			res.mean.add(fig7Key{Conf: confs[i].label + "/fairness", Size: w.size}, sum.Fairness)
		}
	}
	return res, nil
}
