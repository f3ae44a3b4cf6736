package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/pcie"
	"repro/internal/policy"
	"repro/internal/preempt"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// AblationPoint is one configuration of a one-dimensional sweep.
type AblationPoint struct {
	Param  string
	Values map[string]float64
}

// AblationResult is a one-dimensional design-space sweep.
type AblationResult struct {
	Name    string
	Columns []string
	Points  []AblationPoint
}

// Table renders the sweep.
func (r *AblationResult) Table() *Table {
	t := &Table{
		Title:  "Ablation: " + r.Name,
		Header: append([]string{"param"}, r.Columns...),
	}
	for _, p := range r.Points {
		row := []string{p.Param}
		for _, c := range r.Columns {
			row = append(row, fmt.Sprintf("%.3f", p.Values[c]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// hpPoint is one value of a priority sweep: its row label and the job that
// simulates one workload at this value.
type hpPoint struct {
	param string
	job   func(spec workload.Spec) simJob
}

// hpSweep runs a priority sweep over PerSize random 4-process workloads with
// a high-priority first process. One nonprioritized FCFS baseline per
// workload is shared by every point; each point then runs its job on every
// workload. A point reports the mean high-priority NTT improvement over the
// baseline and the mean of column, which metric reads off each run's score.
// Every run is scored against the workload's own apps, so a job may
// transform the apps it simulates (kernel slicing) without changing the
// isolated baselines it is normalized against.
func (h *Harness) hpSweep(name, column string, metric func(metrics.Summary) float64, points []hpPoint) (*AblationResult, error) {
	specs := workload.Random(h.Suite, 4, h.Opts.PerSize, h.Opts.Seed+4, true)
	var jobs []simJob
	for _, spec := range specs {
		jobs = append(jobs, h.baselineJob(spec))
	}
	for _, p := range points {
		for _, spec := range specs {
			jobs = append(jobs, p.job(spec))
		}
	}
	results, err := h.runAll(jobs)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Name: name, Columns: []string{"hp NTT improvement", column}}
	next := len(specs)
	for _, p := range points {
		imp, sum := 0.0, 0.0
		for si, spec := range specs {
			base, err := h.score(spec.Apps, results[si])
			if err != nil {
				return nil, err
			}
			run, err := h.score(spec.Apps, results[next])
			if err != nil {
				return nil, err
			}
			next++
			imp += base.NTTs[0] / run.NTTs[0]
			sum += metric(run)
		}
		n := float64(len(specs))
		res.Points = append(res.Points, AblationPoint{
			Param:  p.param,
			Values: map[string]float64{"hp NTT improvement": imp / n, column: sum / n},
		})
	}
	return res, nil
}

// stpOf and anttOf read a priority sweep's summary column off a run's score.
func stpOf(s metrics.Summary) float64  { return s.STP }
func anttOf(s metrics.Summary) float64 { return s.ANTT }

// AblationPipelineDrain sweeps the pipeline-drain latency that precedes the
// context-save trap (§3.2: precise exceptions) and reports the mean
// high-priority NTT improvement of PPQ-CS over FCFS.
func AblationPipelineDrain(o Options, latencies []sim.Time) (*AblationResult, error) {
	h := NewHarness(o)
	if len(latencies) == 0 {
		latencies = []sim.Time{0, sim.Microseconds(0.5), sim.Microseconds(1),
			sim.Microseconds(2), sim.Microseconds(4), sim.Microseconds(8)}
	}
	var points []hpPoint
	for _, lat := range latencies {
		points = append(points, hpPoint{param: lat.String(), job: func(spec workload.Spec) simJob {
			rc := h.runConfig(pcie.PriorityFCFS{})
			rc.Sys.GPU.PipelineDrainLatency = lat
			return simJob{spec: spec, rc: rc, pol: ppq, mech: contextSwitch, label: fmt.Sprintf("PPQ-CS/%v", lat)}
		}})
	}
	return h.hpSweep("pipeline-drain latency before context save", "STP", stpOf, points)
}

// AblationJitter sweeps thread-block time variability and reports the STP
// degradation of DSS (both mechanisms) over FCFS: the paper attributes the
// draining mechanism's extra throughput loss to variable thread-block times
// leaving draining SMs underutilized (§4.3).
func AblationJitter(o Options, jitters []float64) (*AblationResult, error) {
	if len(jitters) == 0 {
		jitters = []float64{0, 0.15, 0.30, 0.50}
	}
	res := &AblationResult{Name: "thread-block time variability",
		Columns: []string{"DSS-CS STP degradation", "DSS-Drain STP degradation"}}
	for _, j := range jitters {
		oj := o
		oj.Jitter = j
		if j == 0 {
			oj.Jitter = -1 // Options treats 0 as "default"; negative disables
		}
		h := NewHarness(oj)
		grid, err := h.runGrid([]int{4}, false, h.confJobs([]gridConf{
			{label: "FCFS", pol: fcfs},
			{label: "DSS/" + preempt.ContextSwitch{}.Name(), pol: dss, mk: contextSwitch},
			{label: "DSS/" + preempt.Drain{}.Name(), pol: dss, mk: drain},
		}))
		if err != nil {
			return nil, err
		}
		var degCS, degDrain float64
		n := 0
		for _, w := range grid {
			base, cs, dr := w.scores[0].STP, w.scores[1].STP, w.scores[2].STP
			if cs > 0 && dr > 0 && base > 0 {
				degCS += base / cs
				degDrain += base / dr
				n++
			}
		}
		res.Points = append(res.Points, AblationPoint{
			Param: fmt.Sprintf("%.0f%%", h.Opts.Jitter*100),
			Values: map[string]float64{
				"DSS-CS STP degradation":    degCS / float64(n),
				"DSS-Drain STP degradation": degDrain / float64(n),
			},
		})
	}
	return res, nil
}

// AblationActiveLimit sweeps the active-kernel limit (§3.3 fixes it to the
// number of SMs) and reports DSS ANTT on 8-process workloads.
func AblationActiveLimit(o Options, limits []int) (*AblationResult, error) {
	h := NewHarness(o)
	if len(limits) == 0 {
		limits = []int{2, 4, 8, 13, 26}
	}
	specs := workload.Random(h.Suite, 8, h.Opts.PerSize, h.Opts.Seed+8, false)
	res := &AblationResult{Name: "active-kernel limit (KSRT/active-queue capacity)",
		Columns: []string{"DSS-CS ANTT"}}
	var jobs []simJob
	for _, lim := range limits {
		for _, spec := range specs {
			rc := h.runConfig(pcie.FCFS{})
			rc.Sys.ActiveLimit = lim
			jobs = append(jobs, simJob{spec: spec, rc: rc, pol: dss, mech: contextSwitch,
				label: fmt.Sprintf("DSS/limit=%d", lim)})
		}
	}
	results, err := h.runAll(jobs)
	if err != nil {
		return nil, err
	}
	for li, lim := range limits {
		antt := 0.0
		for si, spec := range specs {
			sum, err := h.score(spec.Apps, results[li*len(specs)+si])
			if err != nil {
				return nil, err
			}
			antt += sum.ANTT
		}
		res.Points = append(res.Points, AblationPoint{
			Param:  fmt.Sprintf("%d", lim),
			Values: map[string]float64{"DSS-CS ANTT": antt / float64(len(specs))},
		})
	}
	return res, nil
}

// AblationTokens compares equal DSS token budgets against
// priority-weighted budgets (the high-priority process gets twice the
// share), reporting the high-priority NTT improvement and overall ANTT.
func AblationTokens(o Options) (*AblationResult, error) {
	h := NewHarness(o)
	weighted := func(nproc int) core.Policy {
		p := policy.NewDSS(nproc)
		p.TokenFunc = func(fw *core.Framework, k *core.KSR) int {
			shares := nproc + 1 // high-priority counts twice
			tc := fw.NumSMs() / shares
			if k.Priority() > 0 {
				return 2 * tc
			}
			return tc
		}
		return p
	}
	point := func(param string, pol func(int) core.Policy, label string) hpPoint {
		return hpPoint{param: param, job: func(spec workload.Spec) simJob {
			return simJob{spec: spec, rc: h.runConfig(pcie.FCFS{}), pol: pol, mech: contextSwitch, label: label}
		}}
	}
	return h.hpSweep("DSS token weighting (equal vs 2x high-priority share)", "ANTT", anttOf, []hpPoint{
		point("equal", dss, "DSS/weighted=false"),
		point("2x-high-priority", weighted, "DSS/weighted=true"),
	})
}

// RunSlicing compares software kernel slicing (§5: Basaran & Kang, elastic
// kernels, Kernelet) against hardware preemption for serving a
// high-priority process. Slicing creates preemption points at slice
// boundaries under a plain priority scheduler with no preemption hardware;
// smaller slices reduce the high-priority waiting time but add
// kernel-launch overheads that erode throughput — while PPQ with the
// context-switch mechanism gets low latency without slicing costs. Every
// run is normalized against the unsliced traces' isolated baselines:
// slicing changes the trace, not the app.
func RunSlicing(o Options, sliceSizes []int) (*AblationResult, error) {
	h := NewHarness(o)
	if len(sliceSizes) == 0 {
		// Slices expressed in thread blocks; 0 = unsliced NPQ baseline.
		sliceSizes = []int{0, 512, 128, 32}
	}
	var points []hpPoint
	for _, slice := range sliceSizes {
		label := "NPQ unsliced"
		if slice > 0 {
			label = fmt.Sprintf("NPQ sliced @%d TBs", slice)
		}
		points = append(points, hpPoint{param: label, job: func(spec workload.Spec) simJob {
			if slice > 0 {
				apps := make([]*trace.App, len(spec.Apps))
				for i, a := range spec.Apps {
					apps[i] = trace.SliceKernels(a, slice)
				}
				spec.Apps = apps
			}
			return simJob{spec: spec, rc: h.runConfig(pcie.PriorityFCFS{}), pol: npq, label: label}
		}})
	}
	// Hardware preemption reference.
	const hw = "PPQ context switch (hardware)"
	points = append(points, hpPoint{param: hw, job: func(spec workload.Spec) simJob {
		return simJob{spec: spec, rc: h.runConfig(pcie.PriorityFCFS{}), pol: ppq, mech: contextSwitch, label: hw}
	}})
	return h.hpSweep("software kernel slicing vs hardware preemption (4-process workloads)", "STP", stpOf, points)
}

// AblationSharedMem reports how restricting the shared-memory configuration
// changes occupancy and context-save time for the kernels of Table 1.
func AblationSharedMem() (*Table, error) {
	small := gpu.DefaultConfig()
	small.SharedMemConfigs = []int{16 * 1024, 32 * 1024, 48 * 1024}
	wide := gpu.DefaultConfig()
	wide.SharedMemConfigs = []int{48 * 1024}

	rows, err := RunTable1(Options{})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: shared-memory configuration (first-fit 16/32/48KB vs always 48KB)",
		Header: []string{"app", "kernel", "TBs/SM (first-fit)", "TBs/SM (48KB)", "save us (first-fit)", "save us (48KB)"},
	}
	for _, r := range rows {
		spec := r.Spec()
		occFit, err := small.Occupancy(&spec)
		if err != nil {
			return nil, err
		}
		occWide, err := wide.Occupancy(&spec)
		if err != nil {
			return nil, err
		}
		saveFit, err := small.SaveTime(&spec)
		if err != nil {
			return nil, err
		}
		saveWide, err := wide.SaveTime(&spec)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			r.App, r.Kernel,
			fmt.Sprintf("%d", occFit), fmt.Sprintf("%d", occWide),
			fmt.Sprintf("%.2f", saveFit.Microseconds()), fmt.Sprintf("%.2f", saveWide.Microseconds()),
		})
	}
	return t, nil
}
