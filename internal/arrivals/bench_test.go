package arrivals

import (
	"testing"

	"repro/internal/core"
	"repro/internal/parboil"
	"repro/internal/policy"
	"repro/internal/preempt"
	"repro/internal/proc"
	"repro/internal/system"
	"repro/internal/trace"
)

// BenchmarkAdmitReplay is one request's whole path on a warm machine:
// admission (context, recycled process, phase table), the replay of its
// CPU phases and commands, kernel issue and completion, and retirement.
// The requests alternate between the minimal spmv and lbm apps (every
// kernel cut to its fewest thread blocks) under PPQ with the adaptive
// mechanism, as in the fleet benchmarks' per-request path. A warm request
// allocates nothing.
func BenchmarkAdmitReplay(b *testing.B) {
	var apps []*trace.App
	for _, name := range []string{"spmv", "lbm"} {
		a, err := parboil.App(name)
		if err != nil {
			b.Fatal(err)
		}
		apps = append(apps, a.Scale(1<<20))
	}
	tr := &trace.ArrivalTrace{
		Apps:     apps,
		Classes:  []trace.ArrivalClass{{Name: "rt", Priority: 1}, {Name: "batch"}},
		Arrivals: []trace.Arrival{{App: 0, Class: 0}, {App: 1, Class: 1}},
	}
	sys, err := system.New(system.DefaultConfig(), policy.NewPPQ(false), core.Mechanism(preempt.NewAdaptive()))
	if err != nil {
		b.Fatal(err)
	}
	done := 0
	ad := NewAdmitter(sys, tr, new(proc.PhaseTables).Build(tr.Apps), func(int, proc.RunRecord) { done++ })
	serve := func(i int) {
		if err := ad.Admit(i&1, i); err != nil {
			b.Fatal(err)
		}
		if err := sys.Eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
	for i := range 8 {
		serve(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(i)
	}
	b.StopTimer()
	if done != 8+b.N {
		b.Fatalf("%d requests completed, want %d", done, 8+b.N)
	}
}
