package experiments

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/parboil"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Table1Row is one computed row of Table 1: the input statistics plus the
// derived columns produced by this implementation's calculators.
type Table1Row struct {
	parboil.Row
	// GotTBsPerSM is the occupancy computed by gpu.Config.Occupancy.
	GotTBsPerSM int
	// GotResourcePct is the SRAM utilization computed by the gpu package.
	GotResourcePct float64
	// GotSaveUs is the projected context save time computed by the gpu
	// package.
	GotSaveUs float64
	// Class1 and Class2 are the application's class assignments.
	Class1, Class2 trace.Class
}

// Spec returns the kernel specification for this row.
func (r Table1Row) Spec() trace.KernelSpec {
	return trace.KernelSpec{
		Name:           r.Kernel,
		NumTBs:         r.NumTBs,
		TBTime:         sim.Microseconds(r.TimePerTBUs),
		RegsPerTB:      r.RegsPerTB,
		SharedMemPerTB: r.SharedMemB,
		ThreadsPerTB:   r.ThreadsPerTB,
		Launches:       r.Launches,
	}
}

// RunTable1 recomputes the derived columns of Table 1 with this
// implementation's occupancy and context calculators, for comparison with
// the published values. Rows are independent, so they are computed on the
// shared runner (o.Workers, o.Context) and returned in Table 1 order.
func RunTable1(o Options) ([]Table1Row, error) {
	cfg := gpu.DefaultConfig()
	table := parboil.Table1()
	return mapCells(o, len(table), func(i int) (Table1Row, error) {
		r := table[i]
		spec := trace.KernelSpec{
			Name:           r.Kernel,
			NumTBs:         r.NumTBs,
			TBTime:         sim.Microseconds(r.TimePerTBUs),
			RegsPerTB:      r.RegsPerTB,
			SharedMemPerTB: r.SharedMemB,
			ThreadsPerTB:   r.ThreadsPerTB,
			Launches:       r.Launches,
		}
		occ, err := cfg.Occupancy(&spec)
		if err != nil {
			return Table1Row{}, fmt.Errorf("experiments: table1 %s/%s: %w", r.App, r.Kernel, err)
		}
		util, err := cfg.ResourceUtilization(&spec)
		if err != nil {
			return Table1Row{}, err
		}
		save, err := cfg.SaveTime(&spec)
		if err != nil {
			return Table1Row{}, err
		}
		app, err := parboil.App(r.App)
		if err != nil {
			return Table1Row{}, err
		}
		return Table1Row{
			Row:            r,
			GotTBsPerSM:    occ,
			GotResourcePct: util * 100,
			GotSaveUs:      save.Microseconds(),
			Class1:         app.Class1,
			Class2:         app.Class2,
		}, nil
	}, nil)
}

// Table1Table renders the recomputed Table 1.
func Table1Table(rows []Table1Row) *Table {
	t := &Table{
		Title: "Table 1: kernel statistics (derived columns recomputed; 'want' = published value)",
		Header: []string{"app", "kernel", "launches", "TBs", "time/TB(us)",
			"shmem/TB", "regs/TB", "TBs/SM", "want", "resour%", "want", "save(us)", "want", "class1", "class2"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.App, r.Kernel,
			fmt.Sprintf("%d", r.Launches),
			fmt.Sprintf("%d", r.NumTBs),
			fmt.Sprintf("%.2f", r.TimePerTBUs),
			fmt.Sprintf("%d", r.SharedMemB),
			fmt.Sprintf("%d", r.RegsPerTB),
			fmt.Sprintf("%d", r.GotTBsPerSM),
			fmt.Sprintf("%d", r.WantTBsPerSM),
			fmt.Sprintf("%.2f", r.GotResourcePct),
			fmt.Sprintf("%.2f", r.WantResourcePct),
			fmt.Sprintf("%.2f", r.GotSaveUs),
			fmt.Sprintf("%.2f", r.WantSaveUs),
			r.Class1.String(), r.Class2.String(),
		})
	}
	return t
}

// RunTable2 renders the simulation parameters (Table 2).
func RunTable2() *Table {
	g := gpu.DefaultConfig()
	p := pcie.DefaultConfig()
	t := &Table{
		Title:  "Table 2: simulation parameters",
		Header: []string{"component", "parameter", "value"},
	}
	add := func(c, k, v string) { t.Rows = append(t.Rows, []string{c, k, v}) }
	add("GPU", "Clock", fmt.Sprintf("%.0f MHz", float64(g.ClockHz)/1e6))
	add("GPU", "Cores (SMs)", fmt.Sprintf("%d", g.NumSMs))
	add("GPU", "Memory bandwidth", fmt.Sprintf("%.0f GB/s", float64(g.MemBandwidth)/1e9))
	add("GPU", "Registers per SM", fmt.Sprintf("%d", g.RegsPerSM))
	add("GPU", "Thread blocks per SM", fmt.Sprintf("%d", g.MaxTBsPerSM))
	add("GPU", "Threads per SM", fmt.Sprintf("%d", g.MaxThreadsPerSM))
	add("GPU", "Shared memory per SM", "16KB / 32KB / 48KB")
	add("GPU", "Pipeline drain latency", g.PipelineDrainLatency.String())
	add("GPU", "SM setup latency", g.SMSetupLatency.String())
	add("PCIe", "Effective bandwidth", fmt.Sprintf("%.0f GB/s", float64(p.Bandwidth)/1e9))
	add("PCIe", "Burst", fmt.Sprintf("%d KB", p.BurstBytes/1024))
	add("PCIe", "Burst overhead", p.BurstOverhead.String())
	add("PCIe", "Issue latency", p.IssueLatency.String())
	return t
}
