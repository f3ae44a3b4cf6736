package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./internal/experiments -run TestGolden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// compareGolden checks a rendered table byte-for-byte against its committed
// golden file, so any formatting or numeric drift — an accidental change to
// a simulator constant, a scheduling decision, the table renderer — fails
// the suite.
func compareGolden(name, got string) error {
	path := filepath.Join("testdata", name+".golden")
	want, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("missing golden file %s (seed it with -update): %w", path, err)
	}
	if string(want) != got {
		return fmt.Errorf("%s drifted from %s (refresh with -update if the change is intended):\n--- got ---\n%s\n--- want ---\n%s",
			name, path, got, want)
	}
	return nil
}

// checkGolden compares against (or, with -update, rewrites) the named golden
// file. Intentional changes are reviewed through the golden diff after
// regenerating with -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	if *update {
		path := filepath.Join("testdata", name+".golden")
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	if err := compareGolden(name, got); err != nil {
		t.Error(err)
	}
}

// goldenOpts pins every knob that feeds the golden simulations. Do not
// change without regenerating the goldens.
func goldenOpts() Options {
	return Options{
		Sizes:   []int{4},
		PerSize: 5,
		Seed:    7,
		Scale:   48,
		MinRuns: 2,
		Workers: 4, // output is byte-identical at any worker count
	}
}

// TestGoldenTables regenerates a reduced version of every reported table and
// compares each against its committed golden: Table 1/2, Figure 2, the
// priority grid (Figures 5/6), the DSS grid (Figures 7/8 plus the §4.4
// cross-point summary), and the mechanisms grid.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweeps in -short mode")
	}
	o := goldenOpts()

	rows, err := RunTable1(o)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table1", Table1Table(rows).Render())
	checkGolden(t, "table2", RunTable2().Render())

	fig2, err := RunFig2(o.Seed, o)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig2", fig2.Table().Render())

	fig5, fig6, err := RunPriority(o)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig5", fig5.Table().Render())
	checkGolden(t, "fig6", fig6.Table().Render())

	fig7, fig8, err := RunDSS(o)
	if err != nil {
		t.Fatal(err)
	}
	for i, tab := range fig7.Tables() {
		checkGolden(t, fmt.Sprintf("fig7%c", 'a'+i), tab.Render())
	}
	checkGolden(t, "fig8", fig8.Table().Render())
	var dss strings.Builder
	dss.WriteString(fig7.Chart(48))
	for _, size := range fig8.Sizes {
		fmt.Fprintf(&dss, "cross point at %d procs: %.2f\n", size, fig8.CrossPoint(size))
	}
	checkGolden(t, "dss", dss.String())

	mech, err := RunMechanisms(o)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "mechanisms", mech.Table().Render())

	load, err := goldenLoad()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "load", load.Table().Render())

	clu, err := goldenCluster()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cluster", clu.Table().Render())
}

// TestGoldenSharingAndAblations pins the comparison grids of §2.1 and §5
// (MPS, static partitioning, kernel slicing) and every ablation sweep
// against their committed goldens at the golden options.
func TestGoldenSharingAndAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweeps in -short mode")
	}
	o := goldenOpts()
	tables := []struct {
		name string
		run  func() (*Table, error)
	}{
		{"mps", func() (*Table, error) {
			r, err := RunMPS(o)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"static", func() (*Table, error) {
			r, err := RunStaticVsDSS(o)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"slicing", func() (*Table, error) {
			r, err := RunSlicing(o, nil)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"ablation-pipeline", func() (*Table, error) {
			r, err := AblationPipelineDrain(o, nil)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"ablation-jitter", func() (*Table, error) {
			r, err := AblationJitter(o, nil)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"ablation-activeq", func() (*Table, error) {
			r, err := AblationActiveLimit(o, nil)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"ablation-tokens", func() (*Table, error) {
			r, err := AblationTokens(o)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"ablation-smem", AblationSharedMem},
	}
	for _, tc := range tables {
		tab, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkGolden(t, tc.name, tab.Render())
	}
}

// goldenLoad memoizes the load sweep at the golden options, so the golden
// comparison and the adaptive-vs-draining property test share one run of
// the most expensive grid instead of simulating all 12 cells twice.
var goldenLoad = sync.OnceValues(func() (*LoadResult, error) {
	return RunLoad(goldenOpts(), nil)
})

// TestLoadAdaptiveBeatsDrainingAtPeak pins the headline open-system result:
// at the highest swept offered load, the high-priority class misses strictly
// fewer deadlines under the adaptive mechanism than under draining, because
// draining recovers SMs only as fast as the batch class's long thread blocks
// retire while adaptive switches or flushes them out.
func TestLoadAdaptiveBeatsDrainingAtPeak(t *testing.T) {
	if testing.Short() {
		t.Skip("load sweep in -short mode")
	}
	load, err := goldenLoad()
	if err != nil {
		t.Fatal(err)
	}
	peak := load.Rates[len(load.Rates)-1]
	drain, ok := find(load.Rows, func(x LoadRow) bool {
		return x.RatePerSec == peak && x.Mechanism == MechDraining
	})
	if !ok {
		t.Fatal("missing draining row at peak load")
	}
	adaptive, ok := find(load.Rows, func(x LoadRow) bool {
		return x.RatePerSec == peak && x.Mechanism == MechAdaptive
	})
	if !ok {
		t.Fatal("missing adaptive row at peak load")
	}
	if drain.RTMissRate == 0 {
		t.Fatalf("peak load %v/s does not stress draining (zero misses): the sweep is miscalibrated", peak)
	}
	if adaptive.RTMissRate >= drain.RTMissRate {
		t.Errorf("adaptive rt miss rate %.3f not strictly below draining %.3f at peak load %v/s",
			adaptive.RTMissRate, drain.RTMissRate, peak)
	}
}

// goldenCluster memoizes the cluster sweep at the golden options, shared
// between the golden comparison and the fleet-scaling property test.
var goldenCluster = sync.OnceValues(func() (*ClusterResult, error) {
	return RunCluster(goldenOpts(), nil)
})

// TestClusterFourJSQBeatsSingleGPU pins the headline fleet-scaling result:
// at an offered load that overloads one machine, 4 GPUs behind
// join-shortest-queue miss strictly fewer rt-class deadlines than a single
// GPU under ANY preemption mechanism — adding GPUs (with sane placement)
// beats upgrading the mechanism once the machine saturates.
func TestClusterFourJSQBeatsSingleGPU(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep in -short mode")
	}
	clu, err := goldenCluster()
	if err != nil {
		t.Fatal(err)
	}
	bestSingle := 1.0
	for _, mech := range MechLabels {
		row, ok := find(clu.Rows, func(x ClusterRow) bool {
			return x.GPUs == 1 && x.Dispatch == SingleGPUDispatch && x.Mechanism == mech
		})
		if !ok {
			t.Fatalf("missing 1-GPU row for %s", mech)
		}
		if row.RTMissRate == 0 {
			t.Fatalf("offered load %v/s does not stress one GPU under %s (zero misses): the sweep is miscalibrated",
				clu.RatePerSec, mech)
		}
		if row.RTMissRate < bestSingle {
			bestSingle = row.RTMissRate
		}
	}
	for _, mech := range MechLabels {
		row, ok := find(clu.Rows, func(x ClusterRow) bool {
			return x.GPUs == 4 && x.Dispatch == string(cluster.KindJSQ) && x.Mechanism == mech
		})
		if !ok {
			t.Fatalf("missing 4-GPU jsq row for %s", mech)
		}
		if row.RTMissRate >= bestSingle {
			t.Errorf("4 GPUs + jsq + %s rt miss rate %.3f not strictly below the best single-GPU rate %.3f",
				mech, row.RTMissRate, bestSingle)
		}
	}
}

// TestGoldenHarnessDetectsDrift pins that the comparison really is
// byte-exact: a one-character difference must fail, and identical content
// must pass.
func TestGoldenHarnessDetectsDrift(t *testing.T) {
	if *update {
		t.Skip("drift check is meaningless while rewriting goldens")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "table2.golden"))
	if err != nil {
		t.Fatalf("goldens not seeded: %v", err)
	}
	if err := compareGolden("table2", string(want)); err != nil {
		t.Errorf("identical content rejected: %v", err)
	}
	drifted := strings.Replace(string(want), "13", "14", 1)
	if drifted == string(want) {
		t.Fatal("drift fixture did not change the table")
	}
	if err := compareGolden("table2", drifted); err == nil {
		t.Error("golden harness accepted drifted content")
	}
	if err := compareGolden("no-such-table", "x"); err == nil {
		t.Error("golden harness accepted a missing golden file")
	}
}
