package experiments

import (
	"fmt"
	"slices"
)

// DSS-experiment configuration labels (Figures 7 and 8).
const (
	ConfFCFS     = "FCFS"
	ConfDSSCS    = "DSS Context Switch"
	ConfDSSDrain = "DSS Draining"
)

type fig7aKey struct {
	Group string
	Conf  string
	Size  int
}

type fig7Key struct {
	Conf string
	Size int
}

// Fig7Result is the data behind Figure 7: equal spatial sharing with DSS
// versus the FCFS baseline.
type Fig7Result struct {
	Sizes []int
	// nttImp: mean per-application NTT improvement over FCFS by class group.
	nttImp *meanAgg[fig7aKey]
	// fairImp: mean per-workload fairness improvement over FCFS.
	fairImp *meanAgg[fig7Key]
	// stpDeg: mean per-workload STP degradation over FCFS.
	stpDeg *meanAgg[fig7Key]
}

// NTTImprovement returns the mean per-app NTT improvement for a cell of
// Figure 7a (group in LONG/MEDIUM/SHORT/AVERAGE, conf in ConfDSS*).
func (r *Fig7Result) NTTImprovement(group, conf string, size int) (float64, bool) {
	return r.nttImp.mean(fig7aKey{Group: group, Conf: conf, Size: size})
}

// FairnessImprovement returns the mean fairness improvement (Figure 7b).
func (r *Fig7Result) FairnessImprovement(conf string, size int) (float64, bool) {
	return r.fairImp.mean(fig7Key{Conf: conf, Size: size})
}

// STPDegradation returns the mean STP degradation (Figure 7c).
func (r *Fig7Result) STPDegradation(conf string, size int) (float64, bool) {
	return r.stpDeg.mean(fig7Key{Conf: conf, Size: size})
}

// Tables renders the three subfigures.
func (r *Fig7Result) Tables() []*Table {
	a := &Table{
		Title:  "Figure 7a: NTT improvement over FCFS with DSS equal sharing (times)",
		Header: []string{"group", "procs", ConfDSSCS, ConfDSSDrain},
	}
	for _, g := range []string{"SHORT", "MEDIUM", "LONG", "AVERAGE"} {
		for _, size := range r.Sizes {
			row := []string{g, fmt.Sprintf("%d", size)}
			for _, c := range []string{ConfDSSCS, ConfDSSDrain} {
				row = append(row, r.nttImp.cell(fig7aKey{Group: g, Conf: c, Size: size}, "%.2f"))
			}
			a.Rows = append(a.Rows, row)
		}
	}
	b := &Table{
		Title:  "Figure 7b: system fairness improvement over FCFS (times)",
		Header: []string{"procs", ConfDSSCS, ConfDSSDrain},
	}
	c := &Table{
		Title:  "Figure 7c: system throughput degradation over FCFS (times)",
		Header: []string{"procs", ConfDSSCS, ConfDSSDrain},
	}
	for _, size := range r.Sizes {
		rowB := []string{fmt.Sprintf("%d", size)}
		rowC := []string{fmt.Sprintf("%d", size)}
		for _, conf := range []string{ConfDSSCS, ConfDSSDrain} {
			rowB = append(rowB, r.fairImp.cell(fig7Key{Conf: conf, Size: size}, "%.2f"))
			rowC = append(rowC, r.stpDeg.cell(fig7Key{Conf: conf, Size: size}, "%.3f"))
		}
		b.Rows = append(b.Rows, rowB)
		c.Rows = append(c.Rows, rowC)
	}
	return []*Table{a, b, c}
}

// Fig8Result is the data behind Figure 8: per-workload ANTT curves.
type Fig8Result struct {
	Sizes []int
	// ANTT[size][conf] lists the per-workload ANTT values in workload order.
	ANTT map[int]map[string][]float64
}

// Sorted returns the configuration's ANTT values sorted ascending (the
// x-axis of Figure 8 is "percent of workloads").
func (r *Fig8Result) Sorted(size int, conf string) []float64 {
	return slices.Sorted(slices.Values(r.ANTT[size][conf]))
}

// Table renders the sorted curves.
func (r *Fig8Result) Table() *Table {
	t := &Table{
		Title:  "Figure 8: ANTT of all simulated workloads (sorted ascending per configuration)",
		Header: []string{"procs", "workload%", ConfFCFS, ConfDSSCS, ConfDSSDrain},
	}
	for _, size := range r.Sizes {
		f := r.Sorted(size, ConfFCFS)
		cs := r.Sorted(size, ConfDSSCS)
		dr := r.Sorted(size, ConfDSSDrain)
		for i := range f {
			pct := 0.0
			if len(f) > 1 {
				pct = float64(i) / float64(len(f)-1) * 100
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", size),
				fmt.Sprintf("%.0f", pct),
				fmt.Sprintf("%.2f", f[i]),
				fmt.Sprintf("%.2f", cs[i]),
				fmt.Sprintf("%.2f", dr[i]),
			})
		}
	}
	return t
}

// CrossPoint returns the fraction of workloads (0..1) after which draining
// yields lower ANTT than context switch, for a given size — the cross point
// discussed in §4.4 — or -1 if the curves do not cross.
func (r *Fig8Result) CrossPoint(size int) float64 {
	cs := r.Sorted(size, ConfDSSCS)
	dr := r.Sorted(size, ConfDSSDrain)
	for i := range cs {
		if dr[i] < cs[i] {
			if len(cs) == 1 {
				return 0
			}
			return float64(i) / float64(len(cs)-1)
		}
	}
	return -1
}

// RunDSS runs the equal-spatial-sharing experiments of §4.4: random
// workloads (no priorities), DSS with equal token budgets versus FCFS,
// with both preemption mechanisms. The transfer engine uses FCFS scheduling
// throughout, as in the paper. The size x workload x configuration grid is
// submitted to the shared concurrent runner; aggregation walks the results
// in submission order, so the tables are identical at any worker count.
func RunDSS(o Options) (*Fig7Result, *Fig8Result, error) {
	h := NewHarness(o)
	o = h.Opts

	fig7 := &Fig7Result{
		Sizes:   o.Sizes,
		nttImp:  newMeanAgg[fig7aKey](),
		fairImp: newMeanAgg[fig7Key](),
		stpDeg:  newMeanAgg[fig7Key](),
	}
	fig8 := &Fig8Result{Sizes: o.Sizes, ANTT: make(map[int]map[string][]float64)}

	confs := []gridConf{
		{label: ConfFCFS, pol: fcfs},
		{label: ConfDSSCS, pol: dss, mk: contextSwitch},
		{label: ConfDSSDrain, pol: dss, mk: drain},
	}
	grid, err := h.runGrid(o.Sizes, false, h.confJobs(confs))
	if err != nil {
		return nil, nil, err
	}

	for i, w := range grid {
		if i%o.PerSize == 0 {
			// Each size's curves start at its first workload, so a size
			// listed twice keeps the curves of its last listing.
			fig8.ANTT[w.size] = make(map[string][]float64)
		}
		base := w.scores[0]
		for ci, c := range confs {
			sum := w.scores[ci]
			fig8.ANTT[w.size][c.label] = append(fig8.ANTT[w.size][c.label], sum.ANTT)
			if ci == 0 {
				continue
			}
			// Figure 7a: per-application NTT improvement by class.
			for i, app := range w.spec.Apps {
				if base.NTTs[i] <= 0 || sum.NTTs[i] <= 0 {
					continue
				}
				imp := base.NTTs[i] / sum.NTTs[i]
				group := app.Class2.String()
				fig7.nttImp.add(fig7aKey{Group: group, Conf: c.label, Size: w.size}, imp)
				fig7.nttImp.add(fig7aKey{Group: "AVERAGE", Conf: c.label, Size: w.size}, imp)
			}
			// Figure 7b/7c: per-workload fairness and STP.
			if base.Fairness > 0 && sum.Fairness > 0 {
				fig7.fairImp.add(fig7Key{Conf: c.label, Size: w.size}, sum.Fairness/base.Fairness)
			}
			if base.STP > 0 && sum.STP > 0 {
				fig7.stpDeg.add(fig7Key{Conf: c.label, Size: w.size}, base.STP/sum.STP)
			}
		}
	}
	return fig7, fig8, nil
}
