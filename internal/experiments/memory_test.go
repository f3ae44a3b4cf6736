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
	plain, ok := find(r.Rows, func(x MemoryRow) bool {
		return x.Regime == "scarce" && x.Dispatch == string(cluster.KindLeastLoaded) && x.Mem == "block"
	})
	if !ok {
		t.Fatal("missing scarce least-loaded block row")
	}
	fits, ok := find(r.Rows, func(x MemoryRow) bool {
		return x.Regime == "scarce" && x.Dispatch == string(cluster.KindLeastLoadedFits) && x.Mem == "block"
	})
	if !ok {
		t.Fatal("missing scarce least-loaded-fits block row")
	}
	if plain.RTMissRate == 0 {
		t.Fatal("scarce regime does not stress memory-blind dispatch (zero rt misses): the grid is miscalibrated")
	}
	if fits.RTLatP99Us >= plain.RTLatP99Us {
		t.Errorf("least-loaded-fits rt p99 %.1fus not strictly below least-loaded's %.1fus under HBM oversubscription",
			fits.RTLatP99Us, plain.RTLatP99Us)
	}
	if fits.Goodput <= plain.Goodput {
		t.Errorf("least-loaded-fits goodput %.0f/s not strictly above least-loaded's %.0f/s under HBM oversubscription",
			fits.Goodput, plain.Goodput)
	}
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
	base, ok := find(r.Rows, func(x MemoryRow) bool {
		return x.Regime == "ample" && x.Dispatch == string(cluster.KindLeastLoaded) && x.Mem == "block"
	})
	if !ok {
		t.Fatal("missing ample least-loaded block row")
	}
	for _, d := range []cluster.Kind{cluster.KindLeastLoaded, cluster.KindLeastLoadedFits} {
		for _, mem := range []string{"block", "swap"} {
			row, ok := find(r.Rows, func(x MemoryRow) bool {
				return x.Regime == "ample" && x.Dispatch == string(d) && x.Mem == mem
			})
			if !ok {
				t.Fatalf("missing ample %s %s row", d, mem)
			}
			if row.Spills != 0 || row.SwapIns != 0 || row.SwapOutMiB != 0 {
				t.Errorf("ample %s %s row shows memory pressure (spills=%d swap-ins=%d out=%.1fMiB)",
					d, mem, row.Spills, row.SwapIns, row.SwapOutMiB)
			}
			row.Dispatch, row.Mem = base.Dispatch, base.Mem
			if row != base {
				t.Errorf("ample %s %s row %+v differs from the baseline %+v: the ledger bound despite ample HBM",
					d, mem, row, base)
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
	block, ok := find(r.Rows, func(x MemoryRow) bool {
		return x.Regime == "scarce" && x.Dispatch == string(cluster.KindLeastLoaded) && x.Mem == "block"
	})
	if !ok {
		t.Fatal("missing scarce least-loaded block row")
	}
	swap, ok := find(r.Rows, func(x MemoryRow) bool {
		return x.Regime == "scarce" && x.Dispatch == string(cluster.KindLeastLoaded) && x.Mem == "swap"
	})
	if !ok {
		t.Fatal("missing scarce least-loaded swap row")
	}
	if swap.Spills == 0 || swap.SwapIns != swap.Spills {
		t.Fatalf("scarce swap row did not exercise swapping (spills=%d swap-ins=%d)", swap.Spills, swap.SwapIns)
	}
	if swap.RTLatP99Us >= block.RTLatP99Us {
		t.Errorf("swapping rt p99 %.1fus not strictly below blocking's %.1fus: swap did not rescue the tail",
			swap.RTLatP99Us, block.RTLatP99Us)
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
