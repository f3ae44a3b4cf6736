package repro

import (
	"context"

	"repro/internal/rng"
	"repro/internal/runner"
)

// RunMany simulates a batch of independent workloads concurrently on
// Options.Parallel workers and returns one Result per workload, in input
// order. It is the facade over the same shared job runner that drives the
// experiment grids (internal/runner).
//
// A workload with Seed == 0 gets a deterministic seed derived from
// Options.Seed and its index in ws, so two RunMany calls with the same
// inputs produce identical results at any worker count — identical also to
// running the seeded workloads one at a time with Run. Cancelling ctx stops
// unstarted workloads and returns ctx's error after in-flight simulations
// finish.
func RunMany(ctx context.Context, ws []Workload, o Options) ([]*Result, error) {
	o = o.fill()
	if len(ws) == 0 {
		return nil, ctx.Err()
	}
	// Isolated baselines depend only on the application and the shared
	// options, not on per-workload seeds, so workloads sharing applications
	// (e.g. replicas of one workload) share one baseline simulation. The
	// cache keys by trace identity: distinct traces with equal names stay
	// distinct.
	iso, err := o.isolatedCache()
	if err != nil {
		return nil, err
	}
	return runner.Map(ctx, len(ws), runner.Options{Workers: o.Parallel, OnProgress: o.OnProgress},
		func(ctx context.Context, i int) (*Result, error) {
			w := ws[i]
			if w.Seed == 0 {
				w.Seed = rng.SeedFrom(o.Seed, uint64(i))
			}
			return run(w, o, iso)
		})
}
