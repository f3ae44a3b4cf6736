package system

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/preempt"
)

func TestNewAssemblesMachine(t *testing.T) {
	cfg := DefaultConfig()
	sys, err := New(cfg, policy.NewFCFS(), preempt.Drain{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Eng == nil || sys.Exec == nil || sys.DMA == nil || sys.Contexts == nil {
		t.Fatal("incomplete machine")
	}
	if sys.Exec.NumSMs() != 13 {
		t.Errorf("NumSMs = %d, want 13", sys.Exec.NumSMs())
	}
	if sys.Exec.Timeline() != nil {
		t.Error("timeline attached without being requested")
	}
}

func TestNewWithTimelineAndActiveLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecordTimeline = true
	cfg.ActiveLimit = 5
	sys, err := New(cfg, policy.NewFCFS(), preempt.Drain{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Exec.Timeline() == nil {
		t.Error("timeline not attached")
	}
	if sys.Exec.ActiveLimit() != 5 {
		t.Errorf("active limit = %d, want 5", sys.Exec.ActiveLimit())
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GPU.NumSMs = 0
	if _, err := New(cfg, policy.NewFCFS(), preempt.Drain{}); err == nil {
		t.Fatal("invalid GPU config accepted")
	}
	cfg = DefaultConfig()
	cfg.PCIe.Bandwidth = -1
	if _, err := New(cfg, policy.NewFCFS(), preempt.Drain{}); err == nil {
		t.Fatal("invalid PCIe config accepted")
	}
}

// TestNewRejectsJitterAboveOne pins the jitter bound: a fraction above 1
// makes 1-f+2fu negative for part of the draws, which would silently clamp
// those thread blocks to the minimum duration.
func TestNewRejectsJitterAboveOne(t *testing.T) {
	for _, j := range []float64{1.5, 5, math.NaN()} {
		cfg := DefaultConfig()
		cfg.Jitter = j
		if _, err := New(cfg, policy.NewFCFS(), preempt.Drain{}); err == nil {
			t.Errorf("jitter %v accepted", j)
		}
	}
	for _, j := range []float64{-1, 0, 0.5, 1} {
		cfg := DefaultConfig()
		cfg.Jitter = j
		if _, err := New(cfg, policy.NewFCFS(), preempt.Drain{}); err != nil {
			t.Errorf("jitter %v rejected: %v", j, err)
		}
	}
}

func TestNewContextAllocatesDistinctIDs(t *testing.T) {
	sys, err := New(DefaultConfig(), policy.NewFCFS(), preempt.Drain{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.NewContext("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.NewContext("b", 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID {
		t.Fatal("duplicate context ids")
	}
	if b.Priority != 2 {
		t.Errorf("priority = %d, want 2", b.Priority)
	}
}

func TestDefaultConfigMatchesTable2(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.GPU.NumSMs != 13 || cfg.GPU.MemBandwidth != 208e9 {
		t.Error("GPU defaults do not match Table 2")
	}
	if cfg.PCIe.BurstBytes != 4096 {
		t.Error("PCIe burst should be 4KB (Table 2)")
	}
	if cfg.Jitter != 0.30 {
		t.Errorf("default jitter = %v", cfg.Jitter)
	}
}

// noopMech asserts the system wires whatever mechanism it is given.
type noopMech struct{}

func (noopMech) Name() string                            { return "noop" }
func (noopMech) Preempt(fw *core.Framework, smID int)    {}
func (noopMech) OnTBFinished(fw *core.Framework, sm int) {}

func TestMechanismWiring(t *testing.T) {
	sys, err := New(DefaultConfig(), policy.NewFCFS(), noopMech{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Exec.Mechanism().Name() != "noop" {
		t.Error("mechanism not wired through")
	}
}
