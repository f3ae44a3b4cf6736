// Package core implements the paper's primary contribution: a GPU execution
// engine extended with the hardware scheduling framework of §3 — per-context
// command buffers, the active queue, the Kernel Status Register Table
// (KSRT), the SM Status Table (SMST) and the Preempted Thread Block Queues
// (PTBQ) — together with the SM-driver machinery that issues thread blocks,
// tracks their completion, and orchestrates per-SM preemption through a
// pluggable Mechanism (context switch or draining) under a pluggable
// scheduling Policy (FCFS, NPQ, PPQ, DSS, ...).
//
// The framework is event-driven on top of the sim package: thread blocks are
// issued to SMs and complete after their (trace-derived, jittered) execution
// time; the policy is invoked on the events the paper names — a kernel
// entering the active queue and an SM becoming idle — plus bookkeeping hooks.
package core

import (
	"fmt"

	"repro/internal/gmem"
	"repro/internal/gpu"
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/trace"
)

// KernelID is a handle to an entry of the KSRT. Handles carry a generation
// so that a stale handle to a finished kernel can never alias the slot's new
// occupant. The (slot, generation) pair fits in 64 bits so handles can ride
// through the event engine's closure-free dispatch as a scalar argument.
type KernelID struct {
	slot int
	gen  uint32
}

// NoKernel is the invalid kernel handle.
var NoKernel = KernelID{slot: -1}

// Valid reports whether the handle ever referred to a kernel. Use
// Framework.Kernel to check whether it still does.
func (k KernelID) Valid() bool { return k.slot >= 0 }

func (k KernelID) String() string {
	if !k.Valid() {
		return "kernel(none)"
	}
	return fmt.Sprintf("kernel(%d.%d)", k.slot, k.gen)
}

// LaunchCmd is a kernel-launch command as delivered by the command
// dispatcher to the framework's command buffers.
type LaunchCmd struct {
	Ctx  *gpu.Context
	Spec *trace.KernelSpec
	// Launch is a unique launch instance id, assigned at Submit.
	Launch uint64
	// Enqueued is when the command reached the framework.
	Enqueued sim.Time
	// Priority is the scheduling priority, copied from the context at
	// Submit time.
	Priority int
	// OnStart is invoked when the kernel's first thread block is issued to
	// an SM (open-system queueing-latency accounting); nil to ignore.
	OnStart func(at sim.Time)
	// OnDone is invoked when the kernel's last thread block completes.
	OnDone func(at sim.Time)
}

// PreemptedTB is one entry of a Preempted Thread Block Queue: the handle of
// a thread block whose context was saved (or, for flushed thread blocks of
// idempotent kernels, discarded), sufficient to re-issue it later.
type PreemptedTB struct {
	// Index is the thread-block index within the launch.
	Index int
	// Remaining is the execution time the thread block still needs.
	Remaining sim.Time
	// Restart marks a flushed thread block: its context was discarded, so
	// it re-executes from scratch (full duration, no restore traffic).
	Restart bool
}

// KSR is a Kernel Status Register: one valid entry of the KSRT, describing
// an active (running or preempted) kernel, augmented with the identifier of
// its GPU context (§3.3).
type KSR struct {
	id  KernelID
	Cmd *LaunchCmd

	// TBsPerSM is the kernel's occupancy on this machine (Table 1).
	TBsPerSM int
	// SmemConfig is the shared-memory configuration the SM driver selects.
	SmemConfig int

	// NextTB indexes the next fresh thread block to issue.
	NextTB int
	// Done counts completed thread blocks.
	Done int
	// Running counts thread blocks currently resident on SMs.
	Running int
	// Incoming counts SMs assigned or reserved for this kernel whose setup
	// or preemption has not completed yet (so they are not issuing yet).
	Incoming int
	// Held counts SMs currently attached to this kernel (running on behalf
	// of it, or reserved for it).
	Held int
	// RunningSMs counts SMs in state Running on behalf of this kernel
	// (including ones still setting up; reserved SMs already changed
	// ownership and are excluded).
	RunningSMs int

	// Tokens is the DSS token count (current, may be negative: debt).
	Tokens int

	// Activated is when the kernel entered the active queue.
	Activated sim.Time

	// started records that the first thread block was issued (the OnStart
	// notification fired); preempted re-issues must not re-fire it.
	started bool

	// ctxBytes caches Config.TBContextBytes(Spec()) — hit once per restored
	// thread block and per save-area touch.
	ctxBytes int64
	// jitterState is the rng.Hash64 state after mixing (seed, launch); each
	// thread block's jitter mixes in its index (Framework.jitterFactor).
	jitterState uint64

	ptbq   []PreemptedTB
	saveVA mmu.VAddr
	savePA gmem.PAddr
}

// ID returns the kernel's handle.
func (k *KSR) ID() KernelID { return k.id }

// Ctx returns the kernel's GPU context.
func (k *KSR) Ctx() *gpu.Context { return k.Cmd.Ctx }

// Spec returns the kernel specification.
func (k *KSR) Spec() *trace.KernelSpec { return k.Cmd.Spec }

// Priority returns the kernel's scheduling priority.
func (k *KSR) Priority() int { return k.Cmd.Priority }

// Total returns the total number of thread blocks in the launch.
func (k *KSR) Total() int { return k.Cmd.Spec.NumTBs }

// IssueableTBs returns the number of thread blocks available for issue:
// preempted thread blocks waiting in the PTBQ plus fresh ones.
func (k *KSR) IssueableTBs() int { return (k.Total() - k.NextTB) + len(k.ptbq) }

// HasWork reports whether the kernel has thread blocks to issue.
func (k *KSR) HasWork() bool { return k.IssueableTBs() > 0 }

// Finished reports whether every thread block has completed.
func (k *KSR) Finished() bool { return k.Done == k.Total() }

// SMState is the state of an SM in the SM Status Table.
type SMState int

// SM states (§3.3).
const (
	SMIdle SMState = iota
	SMRunning
	SMReserved
)

func (s SMState) String() string {
	switch s {
	case SMIdle:
		return "idle"
	case SMRunning:
		return "running"
	case SMReserved:
		return "reserved"
	}
	return fmt.Sprintf("SMState(%d)", int(s))
}

// residentTB is one thread block resident on an SM. An SM's resident set is
// unordered (completeTB swap-deletes); seq, the SM's issue count when the
// block was issued, restores issue order where it matters (sortResident).
type residentTB struct {
	index    int32 // trace.KernelSpec.Validate bounds NumTBs to int32
	restored bool
	seq      uint64
	start    sim.Time
	end      sim.Time
	ev       sim.EventID
}

// sm is one entry of the SM Status Table plus the simulated SM itself.
type sm struct {
	fw        *Framework // back-pointer for closure-free event dispatch
	id        int
	state     SMState
	ksr       KernelID // kernel whose thread blocks occupy the SM
	next      KernelID // kernel the SM is reserved for
	resident  []residentTB
	issued    uint64 // thread blocks issued so far; the next residentTB.seq
	settingUp bool
	ctxOnSM   int // installed context id; -1 = none
	tlb       *mmu.TLB
	busyFrom  sim.Time
	// reservedAt is when the SM entered the Reserved state (preemption
	// start); -1 outside a preemption. PreemptionDone accumulates the
	// reservation-to-completion time into Stats.PreemptLatency.
	reservedAt sim.Time
	// saveBuf is the reusable buffer CancelResident fills; its contents stay
	// valid until the next CancelResident on this SM.
	saveBuf []PreemptedTB
}

// reset returns the SM to its power-on state: idle, no kernel, nothing
// resident or installed, an empty TLB of the given capacity.
func (s *sm) reset(tlbEntries int) {
	s.state = SMIdle
	s.ksr, s.next = NoKernel, NoKernel
	s.resident = s.resident[:0]
	s.issued = 0
	s.settingUp = false
	s.ctxOnSM = -1
	if s.tlb == nil {
		s.tlb = mmu.NewTLB(tlbEntries)
	} else {
		s.tlb.Reset(tlbEntries)
	}
	s.busyFrom = -1
	s.reservedAt = -1
	s.saveBuf = s.saveBuf[:0]
}

// sortResident puts the SM's resident set back in issue order. completeTB
// deletes by swapping with the last slot, so only the paths that hand the
// order on — CancelResident and FlushResident (it becomes the PTBQ order,
// and so the re-issue order) and ResidentTBs — pay for it. An insertion
// sort suits the at most TBsPerSM entries.
func (s *sm) sortResident() {
	r := s.resident
	for i := 1; i < len(r); i++ {
		tb := r[i]
		j := i
		for ; j > 0 && r[j-1].seq > tb.seq; j-- {
			r[j] = r[j-1]
		}
		r[j] = tb
	}
}
