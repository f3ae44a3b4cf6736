package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/workload"
)

// Priority-experiment scheduler labels (Figures 5 and 6).
const (
	SchedNPQ      = "NPQ"
	SchedPPQCS    = "PPQ Context Switch"
	SchedPPQDrain = "PPQ Draining"
)

// fig5Key aggregates Figure 5 cells: mean NTT improvement of the
// high-priority process by (class group, scheduler, workload size).
type fig5Key struct {
	Group string
	Sched string
	Size  int
}

// fig6Key aggregates Figure 6 cells: mean STP degradation over NPQ by
// (access scheme, mechanism, size).
type fig6Key struct {
	Scheme string // "exclusive" | "shared"
	Mech   string // "Context Switch" | "Draining"
	Size   int
}

// Fig5Result is the data behind Figure 5.
type Fig5Result struct {
	Sizes      []int
	Schedulers []string
	Groups     []string // LONG, MEDIUM, SHORT, AVERAGE
	mean       *meanAgg[fig5Key]
}

// Improvement returns the mean NTT improvement for a cell.
func (r *Fig5Result) Improvement(group, sched string, size int) (float64, bool) {
	return r.mean.mean(fig5Key{Group: group, Sched: sched, Size: size})
}

// Table renders the figure as a table.
func (r *Fig5Result) Table() *Table {
	t := &Table{
		Title:  "Figure 5: NTT improvement of the high-priority process over FCFS (times)",
		Header: []string{"group", "procs", SchedNPQ, SchedPPQCS, SchedPPQDrain},
	}
	for _, g := range r.Groups {
		for _, size := range r.Sizes {
			row := []string{g, fmt.Sprintf("%d", size)}
			for _, s := range r.Schedulers {
				row = append(row, r.mean.cell(fig5Key{Group: g, Sched: s, Size: size}, "%.2f"))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// Fig6Result is the data behind Figure 6 (a: exclusive, b: shared).
type Fig6Result struct {
	Sizes []int
	mean  *meanAgg[fig6Key]
}

// Degradation returns mean STP degradation (STP_NPQ / STP_PPQ) for a cell.
func (r *Fig6Result) Degradation(scheme, mech string, size int) (float64, bool) {
	return r.mean.mean(fig6Key{Scheme: scheme, Mech: mech, Size: size})
}

// Table renders both subfigures.
func (r *Fig6Result) Table() *Table {
	t := &Table{
		Title:  "Figure 6: STP degradation over NPQ (times)",
		Header: []string{"access", "procs", "PPQ Context Switch", "PPQ Draining"},
	}
	for _, scheme := range []string{"exclusive", "shared"} {
		for _, size := range r.Sizes {
			row := []string{scheme, fmt.Sprintf("%d", size)}
			for _, mech := range []string{"Context Switch", "Draining"} {
				row = append(row, r.mean.cell(fig6Key{Scheme: scheme, Mech: mech, Size: size}, "%.3f"))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// RunPriority runs the preemption-mechanism experiments of §4.2/§4.3: random
// workloads with one high-priority process, comparing NPQ and PPQ (both
// mechanisms, both access schemes) against the FCFS baseline. The transfer
// engine uses NPQ scheduling throughout, as in the paper. All simulations of
// the grid run concurrently on the shared runner; aggregation is in
// submission order, so results are identical at any worker count.
func RunPriority(o Options) (*Fig5Result, *Fig6Result, error) {
	h := NewHarness(o)
	o = h.Opts

	fig5 := &Fig5Result{
		Sizes:      o.Sizes,
		Schedulers: []string{SchedNPQ, SchedPPQCS, SchedPPQDrain},
		Groups:     []string{"LONG", "MEDIUM", "SHORT", "AVERAGE"},
		mean:       newMeanAgg[fig5Key](),
	}
	fig6 := &Fig6Result{Sizes: o.Sizes, mean: newMeanAgg[fig6Key]()}

	type sched struct {
		label  string
		scheme string // for fig6; "" = fig5-only
		mech   string
		pol    func(n int) core.Policy
		mk     func() core.Mechanism
	}
	schedulers := []sched{
		{label: SchedNPQ, pol: npq},
		{label: SchedPPQCS, scheme: "exclusive", mech: "Context Switch", pol: ppq, mk: contextSwitch},
		{label: SchedPPQDrain, scheme: "exclusive", mech: "Draining", pol: ppq, mk: drain},
		{label: "PPQ-shared-CS", scheme: "shared", mech: "Context Switch",
			pol: func(n int) core.Policy { return policy.NewPPQ(true) }, mk: contextSwitch},
		{label: "PPQ-shared-Drain", scheme: "shared", mech: "Draining",
			pol: func(n int) core.Policy { return policy.NewPPQ(true) }, mk: drain},
	}

	grid, err := h.runGrid(o.Sizes, true, func(spec workload.Spec) []simJob {
		jobs := []simJob{h.baselineJob(spec)}
		for _, s := range schedulers {
			jobs = append(jobs, simJob{spec: spec, rc: h.runConfig(true),
				pol: s.pol, mech: s.mk, label: s.label})
		}
		return jobs
	})
	if err != nil {
		return nil, nil, err
	}

	for _, w := range grid {
		baseNTT := w.scores[0].NTTs[0]
		group := w.spec.Apps[0].Class1.String()
		var npqSTP float64
		for i, s := range schedulers {
			sum := w.scores[i+1]
			if s.label == SchedNPQ {
				npqSTP = sum.STP
			}
			// Figure 5 reports only the three headline schedulers.
			if s.label == SchedNPQ || s.label == SchedPPQCS || s.label == SchedPPQDrain {
				imp := baseNTT / sum.NTTs[0]
				fig5.mean.add(fig5Key{Group: group, Sched: s.label, Size: w.size}, imp)
				fig5.mean.add(fig5Key{Group: "AVERAGE", Sched: s.label, Size: w.size}, imp)
			}
			// Figure 6 reports STP degradation of the PPQ variants
			// relative to NPQ on the same workload.
			if s.scheme != "" && npqSTP > 0 && sum.STP > 0 {
				fig6.mean.add(fig6Key{Scheme: s.scheme, Mech: s.mech, Size: w.size}, npqSTP/sum.STP)
			}
		}
	}
	return fig5, fig6, nil
}
