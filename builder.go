package repro

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// AppBuilder constructs custom application traces through the public API —
// used to model workloads beyond the Parboil suite, such as the persistent-
// threads kernels of §2.4.
type AppBuilder struct {
	app    *trace.App
	byName map[string]int
	err    error
}

// NewApp starts building an application trace.
func NewApp(name string) *AppBuilder {
	return &AppBuilder{
		app:    &trace.App{Name: name, Class1: trace.ClassMedium, Class2: trace.ClassMedium},
		byName: make(map[string]int),
	}
}

// KernelConfig describes a custom kernel.
type KernelConfig struct {
	// Name identifies the kernel.
	Name string
	// ThreadBlocks is the number of thread blocks per launch.
	ThreadBlocks int
	// TBTime is the execution time of one resident thread block.
	TBTime time.Duration
	// RegsPerTB is registers per thread block (total across threads).
	RegsPerTB int
	// SharedMemPerTB is bytes of shared memory per thread block.
	SharedMemPerTB int
	// ThreadsPerTB is threads per thread block. Default 256.
	ThreadsPerTB int
	// Idempotent marks a kernel whose thread blocks can be cancelled and
	// re-executed from scratch (no atomics or other order-dependent global
	// updates), making it eligible for the flush preemption mechanism.
	Idempotent bool
}

// Kernel registers a kernel with the application.
func (b *AppBuilder) Kernel(cfg KernelConfig) *AppBuilder {
	if b.err != nil {
		return b
	}
	if _, dup := b.byName[cfg.Name]; dup {
		b.err = fmt.Errorf("repro: duplicate kernel %q", cfg.Name)
		return b
	}
	if cfg.ThreadsPerTB <= 0 {
		cfg.ThreadsPerTB = 256
	}
	b.byName[cfg.Name] = len(b.app.Kernels)
	b.app.Kernels = append(b.app.Kernels, trace.KernelSpec{
		Name:           cfg.Name,
		NumTBs:         cfg.ThreadBlocks,
		TBTime:         sim.Time(cfg.TBTime.Nanoseconds()),
		RegsPerTB:      cfg.RegsPerTB,
		SharedMemPerTB: cfg.SharedMemPerTB,
		ThreadsPerTB:   cfg.ThreadsPerTB,
		Launches:       0,
		Idempotent:     cfg.Idempotent,
	})
	return b
}

// CPU appends a CPU compute segment.
func (b *AppBuilder) CPU(d time.Duration) *AppBuilder {
	b.app.Ops = append(b.app.Ops, trace.Op{Kind: trace.OpCPU, Dur: sim.Time(d.Nanoseconds())})
	return b
}

// H2D appends an asynchronous host-to-device transfer.
func (b *AppBuilder) H2D(bytes int64) *AppBuilder {
	b.app.Ops = append(b.app.Ops, trace.Op{Kind: trace.OpH2D, Bytes: bytes})
	return b
}

// D2H appends an asynchronous device-to-host transfer.
func (b *AppBuilder) D2H(bytes int64) *AppBuilder {
	b.app.Ops = append(b.app.Ops, trace.Op{Kind: trace.OpD2H, Bytes: bytes})
	return b
}

// Launch appends an asynchronous launch of a registered kernel.
func (b *AppBuilder) Launch(kernel string) *AppBuilder {
	if b.err != nil {
		return b
	}
	idx, ok := b.byName[kernel]
	if !ok {
		b.err = fmt.Errorf("repro: launch of unregistered kernel %q", kernel)
		return b
	}
	b.app.Kernels[idx].Launches++
	b.app.Ops = append(b.app.Ops, trace.Op{Kind: trace.OpLaunch, Kernel: idx})
	return b
}

// Sync appends a synchronization point (the CPU blocks until all enqueued
// commands complete).
func (b *AppBuilder) Sync() *AppBuilder {
	b.app.Ops = append(b.app.Ops, trace.Op{Kind: trace.OpSync})
	return b
}

// Build validates and returns the application.
func (b *AppBuilder) Build() (*App, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.app.Validate(); err != nil {
		return nil, err
	}
	return b.app, nil
}
