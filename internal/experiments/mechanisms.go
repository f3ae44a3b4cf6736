package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/preempt"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Mechanism labels for the mechanisms grid.
const (
	MechDraining      = "Draining"
	MechContextSwitch = "Context Switch"
	MechFlush         = "Flush"
	MechAdaptive      = "Adaptive"
)

// MechLabels lists the swept mechanisms in report order.
var MechLabels = []string{MechDraining, MechContextSwitch, MechFlush, MechAdaptive}

// mechConf pairs a mechanism label with its factory.
type mechConf struct {
	label string
	mk    func() core.Mechanism
}

// mechConfs returns the four swept preemption mechanisms in report order —
// the single label-to-factory table behind the mechanisms, load and cluster
// grids, so adding a mechanism reaches every sweep at once.
func mechConfs() []mechConf {
	return []mechConf{
		{MechDraining, drain},
		{MechContextSwitch, contextSwitch},
		{MechFlush, func() core.Mechanism { return preempt.Flush{} }},
		{MechAdaptive, adaptive},
	}
}

// mechPairings are the Parboil pairings the mechanisms grid sweeps: the
// first benchmark is the high-priority process whose arrival preempts the
// second (the victim). The fixed pairings span the victim space — short
// versus long thread blocks, idempotent versus atomic kernels, light versus
// heavy contexts — so each mechanism's sweet spot shows up in at least one
// row.
var mechPairings = [][2]string{
	{"sgemm", "spmv"},         // short-TB idempotent victim: draining is near-free
	{"spmv", "lbm"},           // medium-TB idempotent victim with a heavy context
	{"mri-q", "stencil"},      // single-occupancy idempotent victim
	{"sad", "tpacf"},          // atomic (non-idempotent) long-TB victim: flush must fall back
	{"cutcp", "mri-gridding"}, // mixed victim kernels, both kinds
}

// MechanismsRow is one cell row of the mechanisms grid: one mechanism on one
// pairing.
type MechanismsRow struct {
	Pairing   string
	Mechanism string
	// Preemptions counts completed SM preemptions.
	Preemptions int
	// MeanLatencyUs is the mean reservation-to-completion preemption
	// latency in microseconds.
	MeanLatencyUs float64
	// OverheadUs is the mean per-preemption overhead work in microseconds:
	// context save plus restore traffic plus wasted (re-executed) work.
	// Draining has none by construction — its cost is all latency.
	OverheadUs float64
	// HPImprovement is the high-priority process's NTT improvement over the
	// nonprioritized FCFS baseline.
	HPImprovement float64
	// ANTT is the workload's average normalized turnaround time.
	ANTT float64
	// Drains/Switches/Flushes report the adaptive mechanism's per-preemption
	// decisions (zero for the fixed mechanisms).
	Drains, Switches, Flushes int
}

// MechanismsResult is the data behind the mechanisms grid.
type MechanismsResult struct {
	Rows []MechanismsRow
}

// Table renders the grid in the style of Figure 5: preemption latency and
// overhead per mechanism, next to the scheduling outcome they buy.
func (r *MechanismsResult) Table() *Table {
	t := &Table{
		Title: "Mechanisms: preemption latency and overhead of the four mechanisms (PPQ, high-priority first process)",
		Header: []string{"pairing", "mechanism", "preempts", "lat(us)", "ovh(us)",
			"hp-impr", "ANTT", "decisions(d/s/f)"},
	}
	for _, row := range r.Rows {
		dec := "-"
		if row.Mechanism == MechAdaptive {
			dec = fmt.Sprintf("%d/%d/%d", row.Drains, row.Switches, row.Flushes)
		}
		t.Rows = append(t.Rows, []string{
			row.Pairing, row.Mechanism,
			fmt.Sprintf("%d", row.Preemptions),
			fmt.Sprintf("%.2f", row.MeanLatencyUs),
			fmt.Sprintf("%.2f", row.OverheadUs),
			fmt.Sprintf("%.2f", row.HPImprovement),
			fmt.Sprintf("%.2f", row.ANTT),
			dec,
		})
	}
	return t
}

// RunMechanisms sweeps all four preemption mechanisms over the fixed Parboil
// pairings under preemptive priority scheduling: each pairing runs once per
// mechanism plus once under the nonprioritized FCFS baseline the improvement
// column normalizes against. Jobs go to the shared concurrent runner and are
// aggregated in submission order, so the table is byte-identical at any
// worker count.
func RunMechanisms(o Options) (*MechanismsResult, error) {
	h := NewHarness(o)
	o = h.Opts

	// The adaptive instances are captured per pairing so the decision mix
	// can be reported; each slot is written by exactly one job.
	adaptives := make([]*preempt.Adaptive, len(mechPairings))
	confs := func(pi int) []mechConf {
		cs := mechConfs()
		for i := range cs {
			if cs[i].label == MechAdaptive {
				cs[i].mk = func() core.Mechanism {
					a := preempt.NewAdaptive()
					adaptives[pi] = a
					return a
				}
			}
		}
		return cs
	}

	byName := make(map[string]int, len(h.Suite))
	for i, a := range h.Suite {
		byName[a.Name] = i
	}
	var jobs []simJob
	for pi, pair := range mechPairings {
		spec := workload.Spec{
			Name:         pair[0] + "+" + pair[1],
			Apps:         []*trace.App{h.Suite[byName[pair[0]]], h.Suite[byName[pair[1]]]},
			HighPriority: 0,
			Seed:         rng.SeedFrom(o.Seed, 0xDECADE, uint64(pi)),
		}
		jobs = append(jobs, h.baselineJob(spec))
		for _, c := range confs(pi) {
			jobs = append(jobs, simJob{spec: spec, rc: h.runConfig(true),
				pol: ppq, mech: c.mk, label: c.label})
		}
	}
	results, err := h.runAll(jobs)
	if err != nil {
		return nil, err
	}

	out := &MechanismsResult{}
	next := 0
	for pi, pair := range mechPairings {
		base, err := h.score(results[next].Spec.Apps, results[next])
		if err != nil {
			return nil, err
		}
		next++
		baseNTT := base.NTTs[0]
		// Iterate the labels, not confs(pi): rebuilding the factory closures
		// here would recreate the adaptives-capturing one for no reason.
		for _, label := range MechLabels {
			res := results[next]
			next++
			sum, err := h.score(res.Spec.Apps, res)
			if err != nil {
				return nil, err
			}
			hpNTT := sum.NTTs[0]
			st := res.Stats
			row := MechanismsRow{
				Pairing:     pair[0] + "+" + pair[1],
				Mechanism:   label,
				Preemptions: st.PreemptionsDone,
				ANTT:        sum.ANTT,
			}
			if baseNTT > 0 && hpNTT > 0 {
				row.HPImprovement = baseNTT / hpNTT
			}
			if st.PreemptionsDone > 0 {
				n := float64(st.PreemptionsDone)
				row.MeanLatencyUs = float64(st.PreemptLatency) / n / float64(sim.Microsecond)
				overhead := st.SaveTime + st.RestoreTime + st.WastedWork
				row.OverheadUs = float64(overhead) / n / float64(sim.Microsecond)
			}
			if label == MechAdaptive && adaptives[pi] != nil {
				row.Drains, row.Switches, row.Flushes = adaptives[pi].Decisions()
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}
