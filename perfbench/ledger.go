package main

import (
	"runtime"
	"time"

	"repro/internal/gpu"
	"repro/internal/policy"
	"repro/internal/preempt"
	"repro/internal/proc"
	"repro/internal/system"
)

// ledgerResult is the per-request set-up ledger: host ns and heap
// allocations per process set-up.
type ledgerResult struct{ ns, allocs float64 }

// ledgerCap bounds the requests the ledger replays.
const ledgerCap = 20000

// runLedger replays the batch's process set-ups in isolation on one machine:
// a context, a process, and the context's retirement per request. The
// untraced pass, free of benchmark closures, gives ns and allocations per
// request; the traced pass records the spans.
func runLedger(w scenario, cfg config, t *tracer) (ledgerResult, error) {
	b, err := w.setup(cfg.seed, 1, nil)
	if err != nil {
		return ledgerResult{}, err
	}
	reqs := b.ledger()
	if len(reqs) > ledgerCap {
		reqs = reqs[:ledgerCap]
	}
	sysCfg := system.DefaultConfig()
	sysCfg.ContextCapacity = len(reqs) + 8
	sys, err := system.New(sysCfg, policy.NewFCFS(), preempt.None{})
	if err != nil {
		return ledgerResult{}, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for _, r := range reqs {
		ctx, err := sys.NewContext(r.name, r.priority)
		if err != nil {
			return ledgerResult{}, err
		}
		if _, err := proc.NewWithContext(sys, ctx, r.app); err != nil {
			return ledgerResult{}, err
		}
		if err := sys.RetireContext(ctx.ID); err != nil {
			return ledgerResult{}, err
		}
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)

	err = t.do("system.New", func() (err error) {
		sys, err = system.New(sysCfg, policy.NewFCFS(), preempt.None{})
		return err
	})
	for i := 0; i < len(reqs) && err == nil; i++ {
		r := reqs[i]
		t.setOp(i)
		err = t.do("ledger.request", func() error {
			var ctx *gpu.Context
			err := t.do("system.NewContext", func() (err error) {
				ctx, err = sys.NewContext(r.name, r.priority)
				return err
			})
			if err == nil {
				err = t.do("proc.NewWithContext", func() error {
					_, err := proc.NewWithContext(sys, ctx, r.app)
					return err
				})
			}
			if err == nil {
				err = t.do("system.RetireContext", func() error { return sys.RetireContext(ctx.ID) })
			}
			return err
		})
	}
	t.setOp(-1)
	n := float64(len(reqs))
	return ledgerResult{ns: float64(d.Nanoseconds()) / n, allocs: float64(m1.Mallocs-m0.Mallocs) / n}, err
}
