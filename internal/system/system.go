// Package system assembles a complete simulated machine: the discrete-event
// engine, the GPU (execution engine with the scheduling framework, physical
// memory, context table) and the PCIe data-transfer engine — the components
// of Figure 1 of the paper.
package system

import (
	"fmt"

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
	// Options are the execution engine's jitter, seed, active-queue capacity
	// and time scale; the cluster's fault injector sets TimeScale > 1 on
	// straggler nodes.
	core.Options
	// RecordTimeline attaches a timeline recorder to the execution engine.
	RecordTimeline bool
	// ContextCapacity overrides the GPU context-table capacity
	// (0 = gpu.DefaultContextCapacity). Open-system runs size it to their
	// arrival count so admission never fails while retired contexts free
	// their slots.
	ContextCapacity int
}

// DefaultConfig returns the evaluation machine of Table 2.
func DefaultConfig() Config {
	return Config{
		GPU:     gpu.DefaultConfig(),
		PCIe:    pcie.DefaultConfig(),
		CPU:     cpu.DefaultConfig(),
		Options: core.Options{Jitter: 0.30},
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
	s := &System{
		Eng:      &sim.Engine{},
		Exec:     &core.Framework{},
		DMA:      &pcie.Engine{},
		CPU:      &cpu.Model{},
		Contexts: &gpu.ContextTable{},
		Mem:      &gmem.Manager{},
	}
	if err := s.Reset(cfg, pol, mech); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset reassembles the machine in place for cfg, pol and mech: afterwards
// it is in the state New(cfg, pol, mech) produces, and a simulation run on
// it is identical to one on a fresh machine. Every component is reset, not
// rebuilt, so their slices, maps and free lists keep their capacity.
// Whatever was in flight — events, kernels, transfers, CPU phases, live
// contexts and their mappings — is dropped. Context ids start over; every
// structure keyed by them (TLBs, SM context registers, command buffers,
// memory owners) is emptied with them. New is allocation plus this reset,
// so fresh and recycled machines run one code path. On error the machine
// is unusable until a successful Reset.
func (s *System) Reset(cfg Config, pol core.Policy, mech core.Mechanism) error {
	s.Cfg = cfg
	s.Eng.Reset()
	s.Mem.Reset(cfg.GPU.MemSize)
	var tl *core.Timeline
	if cfg.RecordTimeline {
		tl = core.NewTimeline()
	}
	if err := s.Exec.Reset(s.Eng, cfg.GPU, pol, mech, cfg.Options, s.Mem, tl); err != nil {
		return fmt.Errorf("system: building execution engine: %w", err)
	}
	if err := s.DMA.Reset(s.Eng, cfg.PCIe); err != nil {
		return fmt.Errorf("system: building transfer engine: %w", err)
	}
	if err := s.CPU.Reset(s.Eng, cfg.CPU); err != nil {
		return fmt.Errorf("system: building host CPU: %w", err)
	}
	ctxCap := cfg.ContextCapacity
	if ctxCap <= 0 {
		ctxCap = gpu.DefaultContextCapacity
	}
	s.Contexts.Reset(ctxCap)
	return nil
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
