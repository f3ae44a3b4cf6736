package trace_test

import (
	"testing"

	"repro/internal/parboil"
	"repro/internal/trace"
)

// Scale keeps every CPU op: the replay loop, not the trace format, folds
// adjacent CPU ops into one phase, so arrival-trace files that embed scaled
// apps keep their ops one for one.
func TestScaleKeepsEveryCPUOp(t *testing.T) {
	lbm, err := parboil.App("lbm")
	if err != nil {
		t.Fatal(err)
	}
	count := func(a *trace.App) int {
		n := 0
		for _, op := range a.Ops {
			if op.Kind == trace.OpCPU {
				n++
			}
		}
		return n
	}
	full, scaled := count(lbm), count(lbm.Scale(128))
	if scaled != 100 || scaled != full {
		t.Fatalf("lbm holds %d CPU ops after Scale(128), %d before; want 100 both", scaled, full)
	}
}
