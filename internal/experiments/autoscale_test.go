package experiments

import (
	"sync"
	"testing"
)

// goldenAutoscale memoizes the elastic-fleet sweep at the golden options,
// shared by the golden comparison, the flash-crowd elasticity pin and the
// worker-count determinism check.
var goldenAutoscale = sync.OnceValues(func() (*AutoscaleResult, error) {
	return RunAutoscale(goldenOpts())
})

// TestGoldenAutoscale pins the rendered elastic-fleet sweep byte-for-byte
// against testdata/autoscale.golden: fleet sizing decisions, kill/restart
// tallies, lost-attempt counts and node-second costs included. Regenerate
// with -update after intentional changes.
func TestGoldenAutoscale(t *testing.T) {
	if testing.Short() {
		t.Skip("autoscale sweep in -short mode")
	}
	r, err := goldenAutoscale()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "autoscale", r.Table().Render())
}

// TestAutoscaleFlashCrowdPin pins the headline elasticity result: under a
// fault-free flash crowd, the autoscaled fleet attains at least the
// peak-provisioned static fleet's rt SLO while consuming strictly fewer
// node-seconds — and the minimum static fleet genuinely misses deadlines at
// the same load, so the comparison is not vacuous.
func TestAutoscaleFlashCrowdPin(t *testing.T) {
	if testing.Short() {
		t.Skip("autoscale sweep in -short mode")
	}
	r, err := goldenAutoscale()
	if err != nil {
		t.Fatal(err)
	}
	min, ok := find(r.Rows, func(x AutoscaleRow) bool {
		return x.Pattern == "flash" && x.Fleet == FleetStaticMin && x.KillRate == 0
	})
	if !ok {
		t.Fatalf("missing flash %s row", FleetStaticMin)
	}
	max, ok := find(r.Rows, func(x AutoscaleRow) bool {
		return x.Pattern == "flash" && x.Fleet == FleetStaticMax && x.KillRate == 0
	})
	if !ok {
		t.Fatalf("missing flash %s row", FleetStaticMax)
	}
	auto, ok := find(r.Rows, func(x AutoscaleRow) bool {
		return x.Pattern == "flash" && x.Fleet == FleetAutoscaled && x.KillRate == 0
	})
	if !ok {
		t.Fatalf("missing flash %s row", FleetAutoscaled)
	}
	if min.RTMissRate == 0 {
		t.Fatalf("flash crowd does not stress the %s fleet (zero rt misses): the sweep is miscalibrated",
			FleetStaticMin)
	}
	if auto.RTMissRate > max.RTMissRate {
		t.Errorf("autoscaled rt miss rate %.3f exceeds the peak-provisioned fleet's %.3f under the flash crowd",
			auto.RTMissRate, max.RTMissRate)
	}
	if auto.NodeSeconds >= max.NodeSeconds {
		t.Errorf("autoscaled fleet consumed %.6f node-seconds, not below the peak-provisioned fleet's %.6f",
			auto.NodeSeconds, max.NodeSeconds)
	}
	if auto.ScaleUps == 0 || auto.Drains == 0 {
		t.Errorf("autoscaled flash row shows no elasticity (ups=%d drains=%d)", auto.ScaleUps, auto.Drains)
	}
}

// TestAutoscaleDeterministicAcrossWorkerCounts pins the elastic sweep's
// determinism against the committed golden: autoscaler ticks, kills,
// restarts and re-dispatches all flow through the per-run control engine, so
// the rendered table is byte-identical whether the grid ran on 1, 4 or 8
// workers.
func TestAutoscaleDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("autoscale determinism sweep in -short mode")
	}
	if *update {
		t.Skip("golden comparison is meaningless while rewriting goldens")
	}
	for _, workers := range []int{1, 4, 8} {
		o := goldenOpts()
		o.Workers = workers
		r, err := RunAutoscale(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := compareGolden("autoscale", r.Table().Render()); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
	}
}
