package experiments

import (
	"sync"
	"testing"

	"repro/internal/cluster"
)

// goldenMemory memoizes the memory grid at the golden options, shared by the
// golden comparison, the memory-aware-dispatch pin, the block-vs-swap
// trade-off pin and the worker-count determinism check.
var goldenMemory = sync.OnceValues(func() (*MemoryResult, error) {
	return RunMemory(goldenOpts())
})

// TestGoldenMemory pins the rendered memory grid byte-for-byte against
// testdata/memory.golden: admission counts, spill/swap-in tallies, swap
// traffic and the rt tail included. Regenerate with -update after
// intentional changes.
func TestGoldenMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory sweep in -short mode")
	}
	r, err := goldenMemory()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "memory", r.Table().Render())
}

// TestMemoryFitsBeatsPlainPin pins the headline memory-aware-dispatch
// result: when aggregate working sets oversubscribe the scarce fleet's HBM,
// least-loaded-fits strictly beats memory-blind least-loaded on rt p99 and
// rt goodput under admission blocking — and the blind baseline genuinely
// blocks (non-zero rt misses), so the comparison is not vacuous.
func TestMemoryFitsBeatsPlainPin(t *testing.T) {
	if testing.Short() {
		t.Skip("memory sweep in -short mode")
	}
	r, err := goldenMemory()
	if err != nil {
		t.Fatal(err)
	}
	plain, ok := findRow(r.Rows, "scarce", string(cluster.KindLeastLoaded), "block")
	if !ok {
		t.Fatal("missing scarce least-loaded block row")
	}
	fits, ok := findRow(r.Rows, "scarce", string(cluster.KindLeastLoadedFits), "block")
	if !ok {
		t.Fatal("missing scarce least-loaded-fits block row")
	}
	if rtMiss(plain.Classes) == 0 {
		t.Fatal("scarce regime does not stress memory-blind dispatch (zero rt misses): the grid is miscalibrated")
	}
	if rtP99(fits.Classes) >= rtP99(plain.Classes) {
		t.Errorf("least-loaded-fits rt p99 %.1fus not strictly below least-loaded's %.1fus under HBM oversubscription",
			rtP99(fits.Classes), rtP99(plain.Classes))
	}
	if fits.Goodput <= plain.Goodput {
		t.Errorf("least-loaded-fits goodput %.0f/s not strictly above least-loaded's %.0f/s under HBM oversubscription",
			fits.Goodput, plain.Goodput)
	}
}

// memoryMetric holds the eight quantities a memory-grid row reports.
type memoryMetric struct {
	Admitted, Completed, Spills, SwapIns int
	SwapOutBytes                         int64
	RTLatP99Us, RTMissRate, Goodput      float64
}

// memoryMetrics reads a memory-grid row's eight reported quantities.
func memoryMetrics(row FleetRow) memoryMetric {
	return memoryMetric{row.Admitted, row.Completed, row.Spills, row.SwapIns, row.SwapOutBytes,
		rtP99(row.Classes), rtMiss(row.Classes), row.Goodput}
}

// TestMemoryAmpleRegimeInert pins that plentiful HBM makes the memory
// machinery invisible: every ample row must be identical across dispatch
// policies and memory modes (the ledger never binds, so least-loaded-fits
// degenerates to least-loaded and block and swap never trigger), with zero
// spills and zero swap traffic.
func TestMemoryAmpleRegimeInert(t *testing.T) {
	if testing.Short() {
		t.Skip("memory sweep in -short mode")
	}
	r, err := goldenMemory()
	if err != nil {
		t.Fatal(err)
	}
	base, ok := findRow(r.Rows, "ample", string(cluster.KindLeastLoaded), "block")
	if !ok {
		t.Fatal("missing ample least-loaded block row")
	}
	for _, d := range []cluster.Kind{cluster.KindLeastLoaded, cluster.KindLeastLoadedFits} {
		for _, mem := range []string{"block", "swap"} {
			row, ok := findRow(r.Rows, "ample", string(d), mem)
			if !ok {
				t.Fatalf("missing ample %s %s row", d, mem)
			}
			if row.Spills != 0 || row.SwapIns != 0 || row.SwapOutBytes != 0 {
				t.Errorf("ample %s %s row shows memory pressure (spills=%d swap-ins=%d out=%dB)",
					d, mem, row.Spills, row.SwapIns, row.SwapOutBytes)
			}
			if got, want := memoryMetrics(row), memoryMetrics(base); got != want {
				t.Errorf("ample %s %s row %+v differs from the baseline %+v: the ledger bound despite ample HBM",
					d, mem, got, want)
			}
		}
	}
}

// TestMemoryBlockVsSwapTradeOff pins the oversubscription trade-off the two
// disciplines embody: under scarcity with memory-blind dispatch, swapping
// rescues the rt tail that admission blocking ruins (head-of-line waits turn
// into PCIe traffic), but pays for it in goodput — the serialized swap
// transfers stretch the run far beyond the blocked variant's makespan.
func TestMemoryBlockVsSwapTradeOff(t *testing.T) {
	if testing.Short() {
		t.Skip("memory sweep in -short mode")
	}
	r, err := goldenMemory()
	if err != nil {
		t.Fatal(err)
	}
	block, ok := findRow(r.Rows, "scarce", string(cluster.KindLeastLoaded), "block")
	if !ok {
		t.Fatal("missing scarce least-loaded block row")
	}
	swap, ok := findRow(r.Rows, "scarce", string(cluster.KindLeastLoaded), "swap")
	if !ok {
		t.Fatal("missing scarce least-loaded swap row")
	}
	if swap.Spills == 0 || swap.SwapIns != swap.Spills {
		t.Fatalf("scarce swap row did not exercise swapping (spills=%d swap-ins=%d)", swap.Spills, swap.SwapIns)
	}
	if rtP99(swap.Classes) >= rtP99(block.Classes) {
		t.Errorf("swapping rt p99 %.1fus not strictly below blocking's %.1fus: swap did not rescue the tail",
			rtP99(swap.Classes), rtP99(block.Classes))
	}
	if swap.Goodput >= block.Goodput {
		t.Errorf("swapping goodput %.0f/s not strictly below blocking's %.0f/s: the swap-traffic cost vanished",
			swap.Goodput, block.Goodput)
	}
}

// TestMemoryDeterministicAcrossWorkerCounts pins the memory grid's
// determinism against the committed golden: spills, swap completions and
// memory-aware placement all run on per-node engines, so the rendered table
// is byte-identical whether the grid ran on 1, 4 or 8 workers.
func TestMemoryDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("memory determinism sweep in -short mode")
	}
	if *update {
		t.Skip("golden comparison is meaningless while rewriting goldens")
	}
	for _, workers := range []int{1, 4, 8} {
		o := goldenOpts()
		o.Workers = workers
		r, err := RunMemory(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := compareGolden("memory", r.Table().Render()); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
	}
}
