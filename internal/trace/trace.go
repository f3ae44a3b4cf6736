// Package trace defines the application traces the simulator replays: GPU
// kernel specifications and per-application command sequences (CPU phases,
// host<->device transfers, kernel launches and synchronization points).
//
// The format mirrors what the paper's in-house trace-driven simulator
// consumes: coarse CPU segments between CUDA API calls plus per-kernel
// statistics (thread-block counts and times, register and shared-memory
// usage) that drive the GPU execution-engine model.
package trace

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Class buckets applications and kernels by execution time, as in Table 1 of
// the paper (Class 1 groups kernels, Class 2 groups whole applications).
type Class int

// Class values.
const (
	ClassUnknown Class = iota
	ClassShort
	ClassMedium
	ClassLong
)

var classNames = map[Class]string{
	ClassUnknown: "UNKNOWN",
	ClassShort:   "SHORT",
	ClassMedium:  "MEDIUM",
	ClassLong:    "LONG",
}

func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// ParseClass converts a class name (as printed by String) back to a Class.
func ParseClass(s string) (Class, error) {
	for c, name := range classNames {
		if name == s {
			return c, nil
		}
	}
	return ClassUnknown, fmt.Errorf("trace: unknown class %q", s)
}

// KernelSpec describes a GPU kernel: its launch geometry and the per
// thread-block statistics the execution-engine model needs. Fields mirror
// the columns of Table 1.
type KernelSpec struct {
	Name string `json:"name"`
	// NumTBs is the number of thread blocks per launch.
	NumTBs int `json:"num_tbs"`
	// TBTime is the execution time of one resident thread block.
	TBTime sim.Time `json:"tb_time_ns"`
	// RegsPerTB is the total architectural registers used by one thread
	// block (summed over its threads), as in Table 1.
	RegsPerTB int `json:"regs_per_tb"`
	// SharedMemPerTB is the shared-memory (scratchpad) footprint of one
	// thread block, in bytes.
	SharedMemPerTB int `json:"shared_mem_per_tb"`
	// ThreadsPerTB is the number of threads in a thread block.
	ThreadsPerTB int `json:"threads_per_tb"`
	// Launches is the number of times the application launches this kernel
	// per run (informational; the Ops sequence is authoritative).
	Launches int `json:"launches"`
	// Idempotent marks a kernel whose thread blocks can be cancelled and
	// re-executed from scratch with the same result (no atomics or other
	// order-dependent global updates). The flush preemption mechanism only
	// applies to idempotent kernels.
	Idempotent bool `json:"idempotent,omitempty"`
}

// Validate checks the spec for internal consistency.
func (k *KernelSpec) Validate() error {
	switch {
	case k.Name == "":
		return fmt.Errorf("trace: kernel with empty name")
	case k.NumTBs <= 0:
		return fmt.Errorf("trace: kernel %s: NumTBs must be positive, got %d", k.Name, k.NumTBs)
	case k.NumTBs > math.MaxInt32:
		return fmt.Errorf("trace: kernel %s: NumTBs must be at most %d, got %d", k.Name, math.MaxInt32, k.NumTBs)
	case k.TBTime <= 0:
		return fmt.Errorf("trace: kernel %s: TBTime must be positive, got %v", k.Name, k.TBTime)
	case k.RegsPerTB < 0:
		return fmt.Errorf("trace: kernel %s: negative RegsPerTB", k.Name)
	case k.SharedMemPerTB < 0:
		return fmt.Errorf("trace: kernel %s: negative SharedMemPerTB", k.Name)
	case k.ThreadsPerTB <= 0:
		return fmt.Errorf("trace: kernel %s: ThreadsPerTB must be positive, got %d", k.Name, k.ThreadsPerTB)
	}
	return nil
}

// OpKind identifies one step of an application trace.
type OpKind int

// Operation kinds.
const (
	// OpCPU is a CPU-side compute segment of a given duration.
	OpCPU OpKind = iota
	// OpH2D enqueues a host-to-device transfer of Bytes on Stream.
	OpH2D
	// OpD2H enqueues a device-to-host transfer of Bytes on Stream.
	OpD2H
	// OpLaunch enqueues kernel Kernel (an index into App.Kernels) on Stream.
	OpLaunch
	// OpSync blocks the CPU until all previously enqueued commands complete.
	OpSync
)

var opNames = map[OpKind]string{
	OpCPU:    "cpu",
	OpH2D:    "h2d",
	OpD2H:    "d2h",
	OpLaunch: "launch",
	OpSync:   "sync",
}

func (k OpKind) String() string {
	if s, ok := opNames[k]; ok {
		return s
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Op is a single step of an application trace. Enqueue operations (OpH2D,
// OpD2H, OpLaunch) are asynchronous with respect to the CPU: the CPU pays
// only a small issue overhead and proceeds to the next op, while the command
// executes in order with the other commands of its stream.
type Op struct {
	Kind   OpKind   `json:"kind"`
	Dur    sim.Time `json:"dur_ns,omitempty"` // OpCPU only
	Bytes  int64    `json:"bytes,omitempty"`  // OpH2D / OpD2H only
	Kernel int      `json:"kernel,omitempty"` // OpLaunch only
	Stream int      `json:"stream,omitempty"` // enqueue ops only
}

// App is a complete application trace: the kernels it launches and the
// ordered command sequence of one run, from first to last CUDA call.
type App struct {
	Name    string       `json:"name"`
	Kernels []KernelSpec `json:"kernels"`
	Ops     []Op         `json:"ops"`
	// Class1 groups the application by its kernels' execution times
	// (Table 1, "Class 1"); Class2 groups it by whole-application execution
	// time (Table 1, "Class 2").
	Class1 Class `json:"class1"`
	Class2 Class `json:"class2"`
	// WorkingSet overrides the application's device-memory footprint in
	// bytes. Zero derives it from the trace's transfers (see
	// WorkingSetBytes); traces for applications that allocate far more than
	// they transfer set it explicitly.
	WorkingSet int64 `json:"working_set_bytes,omitempty"`
}

// WorkingSetBytes returns the device memory one admitted run of the
// application holds for its lifetime: the explicit WorkingSet override when
// set, otherwise the total bytes the trace moves across PCIe (every
// host-sourced input plus every device-resident result it later reads back —
// the allocation sizes a trace exposes). A trace with no transfers and no
// override reports zero: it holds no global-memory allocations worth
// modeling.
func (a *App) WorkingSetBytes() int64 {
	if a.WorkingSet > 0 {
		return a.WorkingSet
	}
	h2d, d2h := a.TotalTransferBytes()
	return h2d + d2h
}

// Validate checks the application trace for internal consistency.
func (a *App) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("trace: app with empty name")
	}
	if len(a.Kernels) == 0 {
		return fmt.Errorf("trace: app %s has no kernels", a.Name)
	}
	for i := range a.Kernels {
		if err := a.Kernels[i].Validate(); err != nil {
			return fmt.Errorf("trace: app %s: %w", a.Name, err)
		}
	}
	if len(a.Ops) == 0 {
		return fmt.Errorf("trace: app %s has no ops", a.Name)
	}
	if a.WorkingSet < 0 {
		return fmt.Errorf("trace: app %s: negative working set %d", a.Name, a.WorkingSet)
	}
	launches := 0
	for i, op := range a.Ops {
		switch op.Kind {
		case OpCPU:
			if op.Dur < 0 {
				return fmt.Errorf("trace: app %s op %d: negative CPU duration", a.Name, i)
			}
		case OpH2D, OpD2H:
			if op.Bytes <= 0 {
				return fmt.Errorf("trace: app %s op %d: transfer with %d bytes", a.Name, i, op.Bytes)
			}
		case OpLaunch:
			if op.Kernel < 0 || op.Kernel >= len(a.Kernels) {
				return fmt.Errorf("trace: app %s op %d: kernel index %d out of range", a.Name, i, op.Kernel)
			}
			launches++
		case OpSync:
		default:
			return fmt.Errorf("trace: app %s op %d: unknown kind %d", a.Name, i, int(op.Kind))
		}
	}
	if launches == 0 {
		return fmt.Errorf("trace: app %s never launches a kernel", a.Name)
	}
	return nil
}

// LaunchCounts returns how many times each kernel (by index) is launched in
// one run of the trace.
func (a *App) LaunchCounts() []int {
	counts := make([]int, len(a.Kernels))
	for _, op := range a.Ops {
		if op.Kind == OpLaunch {
			counts[op.Kernel]++
		}
	}
	return counts
}

// TotalTransferBytes returns the total bytes moved per run in each direction.
func (a *App) TotalTransferBytes() (h2d, d2h int64) {
	for _, op := range a.Ops {
		switch op.Kind {
		case OpH2D:
			h2d += op.Bytes
		case OpD2H:
			d2h += op.Bytes
		}
	}
	return h2d, d2h
}

// TotalCPUTime returns the sum of all CPU segments in one run.
func (a *App) TotalCPUTime() sim.Time {
	var t sim.Time
	for _, op := range a.Ops {
		if op.Kind == OpCPU {
			t += op.Dur
		}
	}
	return t
}

// Scale returns a copy of the app with every kernel's thread-block count and
// number of launches divided by factor (rounded up, minimum 1), and transfer
// sizes and CPU segments divided likewise. Per-thread-block statistics (time,
// registers, shared memory) are preserved, so preemption latencies and
// occupancy — the quantities that drive the paper's results — are unchanged;
// only absolute makespans shrink. Used to keep tests and benchmarks fast.
func (a *App) Scale(factor int) *App {
	if factor <= 1 {
		return a.Clone()
	}
	out := a.Clone()
	for i := range out.Kernels {
		out.Kernels[i].NumTBs = ceilDiv(out.Kernels[i].NumTBs, factor)
	}
	// Drop all but every factor-th launch of each kernel, keeping at least
	// one launch per kernel and preserving op order.
	seen := make([]int, len(out.Kernels))
	kept := out.Ops[:0]
	for _, op := range out.Ops {
		switch op.Kind {
		case OpLaunch:
			seen[op.Kernel]++
			if (seen[op.Kernel]-1)%factor == 0 {
				kept = append(kept, op)
			}
		case OpCPU:
			op.Dur = sim.Time(ceilDiv64(int64(op.Dur), int64(factor)))
			kept = append(kept, op)
		case OpH2D, OpD2H:
			op.Bytes = ceilDiv64(op.Bytes, int64(factor))
			kept = append(kept, op)
		default:
			kept = append(kept, op)
		}
	}
	out.Ops = kept
	for i := range out.Kernels {
		out.Kernels[i].Launches = ceilDiv(out.Kernels[i].Launches, factor)
	}
	out.WorkingSet = ceilDiv64(out.WorkingSet, int64(factor))
	return out
}

// Clone returns a deep copy of the app.
func (a *App) Clone() *App {
	out := *a
	out.Kernels = append([]KernelSpec(nil), a.Kernels...)
	out.Ops = append([]Op(nil), a.Ops...)
	return &out
}

func ceilDiv(a, b int) int {
	if a <= 0 {
		return a
	}
	v := (a + b - 1) / b
	if v < 1 {
		v = 1
	}
	return v
}

func ceilDiv64(a, b int64) int64 {
	if a <= 0 {
		return a
	}
	v := (a + b - 1) / b
	if v < 1 {
		v = 1
	}
	return v
}
