package preempt

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// BenchmarkPreemptLatency measures a preemption-heavy simulation under each
// mechanism: a chaotic policy over four SMs reserving SMs at random while
// six kernels (alternating idempotent and not) run to completion. It tracks
// the per-simulation cost and the steady-state allocation behaviour of each
// mechanism's preemption path (the adaptive estimator is the only one
// expected to allocate, and only on first sight of a kernel).
func BenchmarkPreemptLatency(b *testing.B) {
	cfg := gpu.DefaultConfig()
	cfg.NumSMs = 4
	cfg.SMSetupLatency = sim.Microseconds(1)
	cfg.PipelineDrainLatency = sim.Microseconds(0.5)
	for name, mk := range map[string]func() core.Mechanism{
		"draining":       func() core.Mechanism { return Drain{} },
		"context-switch": func() core.Mechanism { return ContextSwitch{} },
		"flush":          func() core.Mechanism { return Flush{} },
		"adaptive":       func() core.Mechanism { return NewAdaptive() },
	} {
		mk := mk
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			preemptions := 0
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine()
				pol := &chaosPolicy{r: rng.New(7)}
				fw, err := core.New(eng, cfg, pol, mk(), core.Options{Jitter: 0.3, Seed: 7}, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				tbl := gpu.NewContextTable(32)
				for j := 0; j < 6; j++ {
					ctx, _ := tbl.Create("p", 0)
					spec := &trace.KernelSpec{
						Name: "k", NumTBs: 10, TBTime: sim.Microseconds(20),
						RegsPerTB: 16384, ThreadsPerTB: 256, Idempotent: j%2 == 0,
					}
					cmd := &core.LaunchCmd{Ctx: ctx, Spec: spec}
					eng.AtFunc(sim.Time(j)*sim.Microseconds(3), func(any, int64) { fw.Submit(cmd) }, nil, 0)
				}
				if err := eng.Run(); err != nil {
					b.Fatal(err)
				}
				preemptions += fw.Stats().PreemptionsDone
			}
			b.ReportMetric(float64(preemptions)/float64(b.N), "preempts/op")
		})
	}
}
