package experiments

import (
	"fmt"
	"sync"
	"testing"
)

// killLabel renders a kill rate as the resilience and autoscale grids label
// it.
func killLabel(rate float64) string { return fmt.Sprintf("%.0f", rate) }

// goldenResilience memoizes the resilience sweep at the golden options,
// shared by the golden comparison, the retry-storm pin and the worker-count
// determinism check.
var goldenResilience = sync.OnceValues(func() (*ResilienceResult, error) {
	return RunResilience(goldenOpts())
})

// TestGoldenResilience pins the rendered resilience sweep byte-for-byte
// against testdata/resilience.golden: request outcomes, attempt-lifecycle
// tallies (timeouts, retries, hedges, breaker trips) and goodput included.
// Regenerate with -update after intentional changes.
func TestGoldenResilience(t *testing.T) {
	if testing.Short() {
		t.Skip("resilience sweep in -short mode")
	}
	r, err := goldenResilience()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "resilience", r.Table().Render())
}

// TestResilienceGuardedBeatsNaiveAtPeakKills pins the headline lifecycle
// result: at the sweep's peak kill rate, the guarded policy (budgeted
// backoff retries + hedging + circuit breakers + admission control) attains
// strictly more rt-class goodput than naive unbounded retrying under BOTH
// load shapes — the naive config's retry storm amplifies exactly the
// congestion it is trying to route around, while budgets and breakers spend
// retries only where they recover kill losses. The fault-free rows pin the
// other direction: with nothing to recover, naive retrying is harmless, so
// the storm is a property of failure amplification, not of retrying per se.
func TestResilienceGuardedBeatsNaiveAtPeakKills(t *testing.T) {
	if testing.Short() {
		t.Skip("resilience sweep in -short mode")
	}
	r, err := goldenResilience()
	if err != nil {
		t.Fatal(err)
	}
	peak := resilienceKillRates[len(resilienceKillRates)-1]
	if peak == 0 {
		t.Fatal("sweep has no fault-injecting cells")
	}
	for _, pattern := range []string{"steady", "flash"} {
		naive, ok := findRow(r.Rows, pattern, killLabel(peak), LifecycleNaive)
		if !ok {
			t.Fatalf("missing %s naive row at kill rate %g", pattern, peak)
		}
		guarded, ok := findRow(r.Rows, pattern, killLabel(peak), LifecycleGuarded)
		if !ok {
			t.Fatalf("missing %s guarded row at kill rate %g", pattern, peak)
		}
		if naive.Retries == 0 {
			t.Fatalf("%s: peak kill rate %g provokes no naive retries: the sweep is miscalibrated", pattern, peak)
		}
		if rtGoodput(guarded.Result) <= rtGoodput(naive.Result) {
			t.Errorf("%s: guarded rt goodput %.0f req/s not strictly above naive unbounded retry's %.0f at kill rate %g",
				pattern, rtGoodput(guarded.Result), rtGoodput(naive.Result), peak)
		}
		if guarded.BreakerTrips == 0 {
			t.Errorf("%s: guarded row tripped no breakers at kill rate %g", pattern, peak)
		}
		if guarded.Retries >= naive.Retries {
			t.Errorf("%s: retry budget did not bound retries (%d guarded vs %d naive)",
				pattern, guarded.Retries, naive.Retries)
		}
	}
}

// TestResilienceNaiveRetryAmplifiesTimeouts pins the storm's mechanism: at
// the peak kill rate, naive unbounded retrying suffers strictly MORE attempt
// timeouts than dropping every failure outright — its own retries and ghost
// work create the congestion that times the next wave of attempts out —
// while the guarded policy's budget keeps its timeout count below naive's.
// The fault-free steady rows pin the baseline: the stream alone does not
// drop requests, so everything the faulted rows lose is failure handling.
func TestResilienceNaiveRetryAmplifiesTimeouts(t *testing.T) {
	if testing.Short() {
		t.Skip("resilience sweep in -short mode")
	}
	r, err := goldenResilience()
	if err != nil {
		t.Fatal(err)
	}
	base, ok := findRow(r.Rows, "steady", "0", LifecycleNoRetry)
	if !ok {
		t.Fatal("missing steady fault-free no-retry row")
	}
	if base.Dropped > 1 {
		t.Errorf("steady fault-free no-retry row dropped %d requests: the stream overloads the fleet", base.Dropped)
	}
	peak := resilienceKillRates[len(resilienceKillRates)-1]
	for _, pattern := range []string{"steady", "flash"} {
		none, ok := findRow(r.Rows, pattern, killLabel(peak), LifecycleNoRetry)
		if !ok {
			t.Fatalf("missing %s no-retry row at kill rate %g", pattern, peak)
		}
		naive, ok := findRow(r.Rows, pattern, killLabel(peak), LifecycleNaive)
		if !ok {
			t.Fatalf("missing %s naive row at kill rate %g", pattern, peak)
		}
		guarded, ok := findRow(r.Rows, pattern, killLabel(peak), LifecycleGuarded)
		if !ok {
			t.Fatalf("missing %s guarded row at kill rate %g", pattern, peak)
		}
		if none.Dropped == 0 {
			t.Fatalf("%s kill rate %g drops nothing without retries: the sweep is miscalibrated", pattern, peak)
		}
		if naive.TimedOut <= none.TimedOut {
			t.Errorf("%s: naive retrying hit %d timeouts, not above no-retry's %d — no amplification to guard against",
				pattern, naive.TimedOut, none.TimedOut)
		}
		if guarded.TimedOut >= naive.TimedOut {
			t.Errorf("%s: guarded policy hit %d timeouts, not below naive's %d",
				pattern, guarded.TimedOut, naive.TimedOut)
		}
	}
}

// TestResilienceDeterministicAcrossWorkerCounts pins the resilience sweep's
// determinism against the committed golden: timeouts, backoff jitter, hedge
// launches and breaker transitions all flow through per-run seeded state, so
// the rendered table is byte-identical whether the grid ran on 1, 4 or 8
// workers.
func TestResilienceDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("resilience determinism sweep in -short mode")
	}
	if *update {
		t.Skip("golden comparison is meaningless while rewriting goldens")
	}
	for _, workers := range []int{1, 4, 8} {
		o := goldenOpts()
		o.Workers = workers
		r, err := RunResilience(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := compareGolden("resilience", r.Table().Render()); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
	}
}
