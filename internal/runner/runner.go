// Package runner is the shared concurrent job runner behind the experiment
// grids. The paper's evaluation replays hundreds of independent simulations
// (policy x workload x size cells); each cell is a pure function of its
// configuration and seed, so the grid is embarrassingly parallel. Map fans a
// job list out over a bounded worker pool and returns results in submission
// order, which makes aggregation deterministic: callers iterate the result
// slice exactly as the old sequential loops iterated their grids, so the
// output is byte-identical at any worker count.
package runner

import (
	"context"
	"runtime"
	"sync"
)

// Options configures a Map call.
type Options struct {
	// Workers bounds the number of concurrently running jobs. Zero or
	// negative means runtime.NumCPU().
	Workers int
	// OnProgress, when non-nil, is called after every completed job with
	// (completed, total). Calls are serialized; completed increases
	// monotonically from 1 to total.
	OnProgress func(completed, total int)
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

// Pool is a persistent worker pool for repeated small fan-outs: the workers
// are spawned once and reused across Run calls, so callers that fan out many
// times with tiny batches (the cluster layer's parallel time windows fan out
// once per window) pay goroutine startup once per run instead of once per
// batch. A Pool is much leaner than Map — no contexts, no errors, no result
// collection — because its callers communicate through state they partition
// themselves.
type Pool struct {
	jobs chan poolJob
	// wg counts the current Run's outstanding calls. It lives on the pool,
	// not in Run's frame, because the workers' Done calls would otherwise
	// move it to the heap once per Run.
	wg sync.WaitGroup
}

type poolJob struct {
	i  int
	fn func(int)
}

// NewPool starts a pool of the given number of worker goroutines (zero or
// negative means runtime.NumCPU()). Close the pool when done with it.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	p := &Pool{jobs: make(chan poolJob, workers)}
	for w := 0; w < workers; w++ {
		go func() {
			for j := range p.jobs {
				j.fn(j.i)
				p.wg.Done()
			}
		}()
	}
	return p
}

// Run invokes fn(0) .. fn(n-1) on the pool's workers and returns when all
// calls have finished. fn must be safe for concurrent use; Run itself must
// not be called concurrently from multiple goroutines, and fn must not call
// Run reentrantly (the workers it would wait on are occupied running it).
func (p *Pool) Run(n int, fn func(int)) {
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		p.jobs <- poolJob{i: i, fn: fn}
	}
	p.wg.Wait()
}

// Close shuts the pool's workers down. Run must not be called after Close.
func (p *Pool) Close() { close(p.jobs) }

// Map runs fn(ctx, i) for every i in [0, n) on a pool of Options.Workers
// goroutines and returns the n results in index order. The first error
// cancels the pool's context and is returned after in-flight jobs finish;
// cancelling ctx has the same effect and returns ctx's error. fn must be
// safe for concurrent use; any randomness inside fn must be derived from i
// (see rng.SeedFrom), never from scheduling order.
func Map[T any](ctx context.Context, n int, o Options, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, nil
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := o.workers()
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	idx := make(chan int)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		done     int
	)
	go func() {
		defer close(idx)
		for i := 0; i < n; i++ {
			select {
			case idx <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				v, err := fn(ctx, i)
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
						cancel()
					}
				} else {
					out[i] = v
					done++
					if o.OnProgress != nil {
						o.OnProgress(done, n)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := parent.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
