// Package system assembles a complete simulated machine: the discrete-event
// engine, the GPU (execution engine with the scheduling framework, physical
// memory, context table) and the PCIe data-transfer engine — the components
// of Figure 1 of the paper.
package system

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/gmem"
	"repro/internal/gpu"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// Config aggregates the machine parameters.
type Config struct {
	GPU  gpu.Config
	PCIe pcie.Config
	CPU  cpu.Config
	// DMAPolicy orders the data-transfer engine's queue. Defaults to FCFS.
	DMAPolicy pcie.QueuePolicy
	// Jitter is the per-thread-block execution time jitter fraction, at most
	// 1 (0 or negative = no jitter).
	Jitter float64
	// Seed drives all randomness in the machine.
	Seed uint64
	// RecordTimeline attaches a timeline recorder to the execution engine.
	RecordTimeline bool
	// ActiveLimit overrides the active-queue capacity (0 = NumSMs).
	ActiveLimit int
	// ContextCapacity overrides the GPU context-table capacity
	// (0 = gpu.DefaultContextCapacity). Open-system runs size it to their
	// arrival count so admission never fails while retired contexts free
	// their slots.
	ContextCapacity int
	// TimeScale multiplies every thread block's execution time (0 = 1, no
	// scaling). The cluster's fault injector sets it > 1 on straggler nodes.
	TimeScale float64
}

// DefaultConfig returns the evaluation machine of Table 2.
func DefaultConfig() Config {
	return Config{
		GPU:    gpu.DefaultConfig(),
		PCIe:   pcie.DefaultConfig(),
		CPU:    cpu.DefaultConfig(),
		Jitter: 0.30,
	}
}

// System is an assembled machine.
type System struct {
	Eng      *sim.Engine
	Cfg      Config
	Exec     *core.Framework
	DMA      *pcie.Engine
	CPU      *cpu.Model
	Contexts *gpu.ContextTable
	Mem      *gmem.Manager
}

// New assembles a machine running the given policy and mechanism.
func New(cfg Config, pol core.Policy, mech core.Mechanism) (*System, error) {
	// A thread block's time factor is drawn from [1-Jitter, 1+Jitter), so a
	// fraction above 1 would yield negative execution times.
	if cfg.Jitter > 1 || math.IsNaN(cfg.Jitter) {
		return nil, fmt.Errorf("system: jitter fraction %v outside [0, 1]", cfg.Jitter)
	}
	eng := sim.NewEngine()
	mem := gmem.NewManager(cfg.GPU.MemSize)
	opts := []core.Option{
		core.WithJitter(cfg.Jitter),
		core.WithSeed(cfg.Seed),
		core.WithMemory(mem),
	}
	if cfg.RecordTimeline {
		opts = append(opts, core.WithTimeline(core.NewTimeline()))
	}
	if cfg.ActiveLimit > 0 {
		opts = append(opts, core.WithActiveLimit(cfg.ActiveLimit))
	}
	if cfg.TimeScale > 0 {
		opts = append(opts, core.WithTimeScale(cfg.TimeScale))
	}
	fw, err := core.New(eng, cfg.GPU, pol, mech, opts...)
	if err != nil {
		return nil, fmt.Errorf("system: building execution engine: %w", err)
	}
	dma, err := pcie.NewEngine(eng, cfg.PCIe, cfg.DMAPolicy)
	if err != nil {
		return nil, fmt.Errorf("system: building transfer engine: %w", err)
	}
	host, err := cpu.New(eng, cfg.CPU)
	if err != nil {
		return nil, fmt.Errorf("system: building host CPU: %w", err)
	}
	ctxCap := cfg.ContextCapacity
	if ctxCap <= 0 {
		ctxCap = gpu.DefaultContextCapacity
	}
	return &System{
		Eng:      eng,
		Cfg:      cfg,
		Exec:     fw,
		DMA:      dma,
		CPU:      host,
		Contexts: gpu.NewContextTable(ctxCap),
		Mem:      mem,
	}, nil
}

// NewContext registers a new GPU context (one per process).
func (s *System) NewContext(name string, priority int) (*gpu.Context, error) {
	return s.Contexts.Create(name, priority)
}

// RetireContext removes a finished process's GPU context from the machine:
// the execution engine drops its command-buffer bookkeeping and the context
// table frees the slot. The context must be quiescent (no pending commands,
// no active kernels) — retiring mid-flight is a caller bug.
func (s *System) RetireContext(id int) error {
	if err := s.Exec.ReleaseContext(id); err != nil {
		return err
	}
	return s.Contexts.Destroy(id)
}
