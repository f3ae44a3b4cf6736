package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		out, err := Map(context.Background(), 50, Options{Workers: workers},
			func(ctx context.Context, i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 50 {
			t.Fatalf("workers=%d: %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(context.Background(), 0, Options{},
		func(ctx context.Context, i int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("empty map: %v, %v", out, err)
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	_, err := Map(context.Background(), 30, Options{Workers: workers},
		func(ctx context.Context, i int) (struct{}, error) {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return struct{}{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent jobs, want <= %d", p, workers)
	}
}

func TestMapFirstErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	_, err := Map(context.Background(), 1000, Options{Workers: 2},
		func(ctx context.Context, i int) (int, error) {
			ran.Add(1)
			if i == 3 {
				return 0, boom
			}
			return i, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Errorf("error did not cancel remaining jobs (ran %d)", n)
	}
}

func TestMapContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	_, err := Map(ctx, 1000, Options{Workers: 2},
		func(ctx context.Context, i int) (int, error) {
			if ran.Add(1) == 4 {
				cancel()
			}
			return i, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Errorf("cancellation did not stop the pool (ran %d)", n)
	}
	// A pre-cancelled context runs nothing at all.
	ran.Store(0)
	if _, err := Map(ctx, 10, Options{},
		func(ctx context.Context, i int) (int, error) { ran.Add(1); return i, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v", err)
	}
	if ran.Load() != 0 {
		t.Error("pre-cancelled context still ran jobs")
	}
}

func TestMapProgress(t *testing.T) {
	var mu sync.Mutex
	var seen []int
	total := 17
	_, err := Map(context.Background(), total, Options{
		Workers: 4,
		OnProgress: func(done, n int) {
			mu.Lock()
			defer mu.Unlock()
			if n != total {
				t.Errorf("total = %d, want %d", n, total)
			}
			seen = append(seen, done)
		},
	}, func(ctx context.Context, i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != total {
		t.Fatalf("progress called %d times, want %d", len(seen), total)
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("progress sequence %v not monotone", seen)
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) string {
		out, err := Map(context.Background(), 25, Options{Workers: workers},
			func(ctx context.Context, i int) (string, error) {
				return fmt.Sprintf("%d:%d", i, i*7%13), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(out)
	}
	want := run(1)
	for _, w := range []int{2, 4, 16} {
		if got := run(w); got != want {
			t.Errorf("workers=%d diverged:\n got %s\nwant %s", w, got, want)
		}
	}
}

// TestPoolRunsEachIndexOnce checks Run's contract across repeated fan-outs on
// one pool: every index in [0, n) runs exactly once and Run returns only
// after all of them, including the empty and single-job batches the cluster
// windows issue most often.
func TestPoolRunsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		p := NewPool(workers)
		for round, n := range []int{0, 1, 2, 7, 1, 0, 50, 3} {
			calls := make([]atomic.Int32, n)
			p.Run(n, func(i int) { calls[i].Add(1) })
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Errorf("workers=%d round %d (n=%d): index %d ran %d times", workers, round, n, i, c)
				}
			}
		}
		p.Close()
	}
}

// TestPoolRunAllocs pins Run allocation-free: the parallel cluster executor
// calls it once per multi-node window, millions of times per run.
func TestPoolRunAllocs(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var sum atomic.Int64
	fn := func(i int) { sum.Add(int64(i)) }
	if a := testing.AllocsPerRun(100, func() { p.Run(8, fn) }); a != 0 {
		t.Errorf("Pool.Run allocates %v times per call, want 0", a)
	}
	if got, want := sum.Load(), int64(101*28); got != want {
		t.Errorf("fn sum %d, want %d", got, want)
	}
}
