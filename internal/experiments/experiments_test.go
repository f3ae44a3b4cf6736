package experiments

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// find returns the first row match accepts and whether there is one.
func find[R any](rows []R, match func(R) bool) (R, bool) {
	if i := slices.IndexFunc(rows, match); i >= 0 {
		return rows[i], true
	}
	var zero R
	return zero, false
}

// findRow returns the fleet-grid row with exactly these labels and whether
// there is one.
func findRow(rows []FleetRow, labels ...string) (FleetRow, bool) {
	return find(rows, func(x FleetRow) bool { return slices.Equal(x.Labels, labels) })
}

// rtMiss is the rt class's deadline-miss rate; classes is a result's
// per-class SLO accounts, the rt class first.
func rtMiss(classes []metrics.ClassSLO) float64 { return classes[0].MissRate() }

// rtP99 is the rt class's p99 completion latency in microseconds.
func rtP99(classes []metrics.ClassSLO) float64 {
	return classes[0].Latency.Quantile(0.99).Microseconds()
}

// quickOpts keeps experiment tests fast: scaled-down apps, one small size.
func quickOpts(sizes ...int) Options {
	if len(sizes) == 0 {
		sizes = []int{4}
	}
	return Options{
		Sizes:   sizes,
		PerSize: 5,
		Seed:    7,
		Scale:   48,
		MinRuns: 2,
	}
}

func TestTable1MatchesPublishedValues(t *testing.T) {
	rows, err := RunTable1(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 24 {
		t.Fatalf("%d rows, want 24", len(rows))
	}
	for _, r := range rows {
		if r.GotTBsPerSM != r.WantTBsPerSM {
			t.Errorf("%s/%s: TBs/SM %d != published %d", r.App, r.Kernel, r.GotTBsPerSM, r.WantTBsPerSM)
		}
		if math.Abs(r.GotResourcePct-r.WantResourcePct) > 0.02 {
			t.Errorf("%s/%s: resource %.2f%% != published %.2f%%", r.App, r.Kernel, r.GotResourcePct, r.WantResourcePct)
		}
		if math.Abs(r.GotSaveUs-r.WantSaveUs) > 0.011 {
			t.Errorf("%s/%s: save %.3fus != published %.2fus", r.App, r.Kernel, r.GotSaveUs, r.WantSaveUs)
		}
	}
	tab := Table1Table(rows)
	if len(tab.Rows) != 24 {
		t.Error("rendered table row count")
	}
}

func TestTable2Renders(t *testing.T) {
	tab := RunTable2()
	out := tab.Render()
	for _, want := range []string{"208 GB/s", "Cores (SMs)", "13", "4 KB"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 2 missing %q:\n%s", want, out)
		}
	}
}

func TestFig2PreemptionOrdering(t *testing.T) {
	r, err := RunFig2(1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Figure 2: FCFS worst, NPQ better, PPQ best.
	if !(r.PPQ < r.NPQ && r.NPQ < r.FCFS) {
		t.Errorf("expected PPQ < NPQ < FCFS, got PPQ=%v NPQ=%v FCFS=%v", r.PPQ, r.NPQ, r.FCFS)
	}
	// PPQ should improve by a large factor (the paper's figure shows the
	// high-priority kernel starting almost immediately).
	if float64(r.FCFS)/float64(r.PPQ) < 3 {
		t.Errorf("PPQ improvement only %.1fx over FCFS", float64(r.FCFS)/float64(r.PPQ))
	}
	if tab := r.Table(); len(tab.Rows) != 3 {
		t.Error("fig2 table should have 3 rows")
	}
}

func TestRunPriorityDirectionalResults(t *testing.T) {
	if testing.Short() {
		t.Skip("priority sweep in -short mode")
	}
	fig5, fig6, err := RunPriority(quickOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	// Preemptive scheduling must beat the FCFS baseline on average.
	ppqCS, ok := fig5.Improvement("AVERAGE", SchedPPQCS, 4)
	if !ok {
		t.Fatal("missing PPQ-CS average cell")
	}
	if ppqCS <= 1 {
		t.Errorf("PPQ-CS improvement %.2f, want > 1", ppqCS)
	}
	npq, ok := fig5.Improvement("AVERAGE", SchedNPQ, 4)
	if !ok {
		t.Fatal("missing NPQ average cell")
	}
	if ppqCS <= npq {
		t.Errorf("PPQ-CS (%.2f) should beat NPQ (%.2f)", ppqCS, npq)
	}
	// STP degradation cells exist and are positive.
	for _, scheme := range []string{"exclusive", "shared"} {
		for _, mech := range []string{"Context Switch", "Draining"} {
			if v, ok := fig6.Degradation(scheme, mech, 4); !ok || v <= 0 {
				t.Errorf("fig6 %s/%s cell missing or non-positive: %v", scheme, mech, v)
			}
		}
	}
	// Rendering round trip.
	var buf bytes.Buffer
	if err := fig5.Table().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "AVERAGE") {
		t.Error("fig5 CSV missing AVERAGE rows")
	}
}

func TestRunDSSDirectionalResults(t *testing.T) {
	if testing.Short() {
		t.Skip("DSS sweep in -short mode")
	}
	fig7, fig8, err := RunDSS(quickOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	// DSS must improve average NTT and fairness over FCFS at 4 processes.
	for _, conf := range []string{ConfDSSCS, ConfDSSDrain} {
		if v, ok := fig7.NTTImprovement("AVERAGE", conf, 4); !ok || v <= 1 {
			t.Errorf("%s NTT improvement = %v, want > 1", conf, v)
		}
		if v, ok := fig7.FairnessImprovement(conf, 4); !ok || v <= 1 {
			t.Errorf("%s fairness improvement = %v, want > 1", conf, v)
		}
		if v, ok := fig7.STPDegradation(conf, 4); !ok || v <= 0.5 {
			t.Errorf("%s STP degradation = %v, implausible", conf, v)
		}
	}
	// SHORT apps must gain more than LONG apps (Figure 7a shape).
	short, _ := fig7.NTTImprovement("SHORT", ConfDSSCS, 4)
	long, _ := fig7.NTTImprovement("LONG", ConfDSSCS, 4)
	if short <= long {
		t.Errorf("SHORT improvement (%.2f) should exceed LONG (%.2f)", short, long)
	}
	// Figure 8: one ANTT sample per workload per configuration.
	for _, conf := range []string{ConfFCFS, ConfDSSCS, ConfDSSDrain} {
		if got := len(fig8.ANTT[4][conf]); got != 5 {
			t.Errorf("fig8 %s has %d samples, want 5", conf, got)
		}
	}
	sorted := fig8.Sorted(4, ConfFCFS)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] < sorted[i-1] {
			t.Error("Sorted not ascending")
		}
	}
	if tab := fig8.Table(); len(tab.Rows) != 5 {
		t.Errorf("fig8 table rows = %d", len(tab.Rows))
	}
}

func TestAblationSharedMem(t *testing.T) {
	tab, err := AblationSharedMem()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 24 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Forcing the 48KB configuration must increase occupancy for at least
	// one shared-memory-limited kernel (e.g. tpacf genhists 1 -> 3).
	improved := false
	for _, row := range tab.Rows {
		if row[2] != row[3] {
			improved = true
		}
	}
	if !improved {
		t.Error("48KB configuration changed no occupancy")
	}
}

func TestAblationTokensWeightingHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation in -short mode")
	}
	o := quickOpts()
	o.PerSize = 3
	r, err := AblationTokens(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 2 {
		t.Fatalf("points = %d", len(r.Points))
	}
	equal := r.Points[0].Values["hp NTT improvement"]
	weighted := r.Points[1].Values["hp NTT improvement"]
	if weighted <= equal {
		t.Errorf("2x token share should improve the high-priority app: %.2f vs %.2f", weighted, equal)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"x", "1"}, {"longer-cell", "2"}},
	}
	out := tab.Render()
	// Title + header + separator + 2 rows.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("rendered %d lines: %q", len(lines), out)
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "a,long-header\n") {
		t.Errorf("CSV header: %q", buf.String())
	}
}

func TestCSVEscaping(t *testing.T) {
	tab := &Table{Header: []string{"x"}, Rows: [][]string{{`va"l,ue`}}}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"va""l,ue"`) {
		t.Errorf("CSV escaping wrong: %q", buf.String())
	}
}

func TestHarnessIsolatedCacheStable(t *testing.T) {
	h := NewHarness(quickOpts())
	a, err := h.Isolated(h.Suite[3])
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Isolated(h.Suite[3])
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("isolated baseline not cached/deterministic: %v vs %v", a, b)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if len(o.Sizes) != 4 || o.PerSize != 10 || o.MinRuns != 3 || o.Scale != 1 {
		t.Errorf("defaults wrong: %+v", o)
	}
	if o.Jitter != 0.30 {
		t.Errorf("default jitter %v", o.Jitter)
	}
	if o := (Options{Jitter: -1}).withDefaults(); o.Jitter != 0 {
		t.Errorf("negative jitter not clamped to 0 (disabled): %v", o.Jitter)
	}
}

func TestRunMPSComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("MPS sweep in -short mode")
	}
	o := quickOpts(2)
	o.PerSize = 4
	r, err := RunMPS(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, conf := range []string{ConfFCFS, ConfMPS, ConfDSSCS} {
		for _, m := range []string{"ANTT", "STP", "fairness"} {
			if v, ok := r.mean.mean(fig7Key{Conf: conf + "/" + m, Size: 2}); !ok || v <= 0 {
				t.Errorf("%s/%s missing or non-positive: %v", conf, m, v)
			}
		}
	}
	// MPS recovers concurrency: its ANTT must not be worse than the
	// serialized FCFS baseline on average.
	fcfs, _ := r.mean.mean(fig7Key{Conf: ConfFCFS + "/ANTT", Size: 2})
	mps, _ := r.mean.mean(fig7Key{Conf: ConfMPS + "/ANTT", Size: 2})
	if mps > fcfs*1.05 {
		t.Errorf("MPS ANTT %.2f worse than FCFS %.2f", mps, fcfs)
	}
	if tab := r.Table(); len(tab.Rows) != 3 {
		t.Errorf("table rows = %d", len(tab.Rows))
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart("demo", []string{"a", "bb"}, []float64{2, 4}, 10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if !strings.Contains(lines[2], "##########") {
		t.Errorf("max bar not full width: %q", lines[2])
	}
	if !strings.Contains(lines[1], "#####") || strings.Contains(lines[1], "######") {
		t.Errorf("half bar wrong: %q", lines[1])
	}
	// Tiny but positive values still show one tick.
	out = BarChart("", []string{"x", "y"}, []float64{0.001, 100}, 10)
	if !strings.Contains(strings.Split(out, "\n")[0], "#") {
		t.Error("tiny value lost its tick")
	}
	// Degenerate inputs.
	if BarChart("t", []string{"a"}, nil, 10) != "" {
		t.Error("mismatched inputs accepted")
	}
}

func TestFig8SortedDoesNotMutate(t *testing.T) {
	r := &Fig8Result{ANTT: map[int]map[string][]float64{4: {ConfFCFS: {3, 1, 2}}}}
	if got := r.Sorted(4, ConfFCFS); !slices.Equal(got, []float64{1, 2, 3}) {
		t.Errorf("Sorted = %v, want [1 2 3]", got)
	}
	if in := r.ANTT[4][ConfFCFS]; !slices.Equal(in, []float64{3, 1, 2}) {
		t.Errorf("Sorted reordered the result to %v", in)
	}
}

func TestFig8CrossPoint(t *testing.T) {
	r := &Fig8Result{
		Sizes: []int{4},
		ANTT: map[int]map[string][]float64{
			4: {
				ConfFCFS:     {5, 6, 7, 8},
				ConfDSSCS:    {2, 3, 4, 9},
				ConfDSSDrain: {3, 2, 5, 6},
			},
		},
	}
	// Sorted CS: 2,3,4,9; sorted Drain: 2,3,5,6. Drain first beats CS at
	// index 3 (6 < 9) => 3/3 = 1.0.
	if cp := r.CrossPoint(4); cp != 1.0 {
		t.Errorf("CrossPoint = %v, want 1.0", cp)
	}
	// No crossing.
	r.ANTT[4][ConfDSSDrain] = []float64{3, 4, 5, 10}
	if cp := r.CrossPoint(4); cp != -1 {
		t.Errorf("CrossPoint = %v, want -1 (never crosses)", cp)
	}
	// Crossing at the start.
	r.ANTT[4][ConfDSSDrain] = []float64{1, 4, 5, 10}
	if cp := r.CrossPoint(4); cp != 0 {
		t.Errorf("CrossPoint = %v, want 0", cp)
	}
}

func TestMeanAggCounts(t *testing.T) {
	agg := newMeanAgg[string]()
	if _, ok := agg.mean("missing"); ok {
		t.Error("empty key reported a mean")
	}
	agg.add("k", 2)
	agg.add("k", 4)
	if v, ok := agg.mean("k"); !ok || v != 3 {
		t.Errorf("mean = %v,%v", v, ok)
	}
	if agg.n["k"] != 2 {
		t.Errorf("count = %d", agg.n["k"])
	}
}

func TestRunSlicingShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("slicing sweep in -short mode")
	}
	o := quickOpts()
	o.PerSize = 3
	r, err := RunSlicing(o, []int{0, 64})
	if err != nil {
		t.Fatal(err)
	}
	// Points: unsliced, sliced@64, hardware PPQ.
	if len(r.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(r.Points))
	}
	unsliced := r.Points[0].Values["hp NTT improvement"]
	sliced := r.Points[1].Values["hp NTT improvement"]
	hw := r.Points[2].Values["hp NTT improvement"]
	if sliced <= unsliced {
		t.Errorf("slicing did not reduce high-priority latency: %.2f vs %.2f", sliced, unsliced)
	}
	if hw <= unsliced {
		t.Errorf("hardware preemption did not beat unsliced NPQ: %.2f vs %.2f", hw, unsliced)
	}
}

func TestRunStaticVsDSSProducesAllCells(t *testing.T) {
	if testing.Short() {
		t.Skip("static sweep in -short mode")
	}
	o := quickOpts(4)
	o.PerSize = 3
	r, err := RunStaticVsDSS(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, conf := range []string{"Static partition", ConfDSSCS} {
		for _, m := range []string{"ANTT", "STP", "fairness"} {
			if v, ok := r.mean.mean(fig7Key{Conf: conf + "/" + m, Size: 4}); !ok || v <= 0 {
				t.Errorf("%s/%s missing: %v", conf, m, v)
			}
		}
	}
	if tab := r.Table(); len(tab.Rows) != 2 {
		t.Errorf("table rows = %d", len(tab.Rows))
	}
}
