// Package policy implements the scheduling policies evaluated in the paper
// on top of the core scheduling framework: FCFS (the baseline behaviour of
// current GPUs), NPQ (non-preemptive priority queues), PPQ (preemptive
// priority queues, with exclusive- and shared-access variants, §4.2/§4.3),
// and DSS (Dynamic Spatial Sharing, §3.4). A preemptive TimeSlice policy is
// included as an extension: §3.3 names time multiplexing as a policy class
// the framework supports.
//
// Policies are oblivious to the preemption mechanism in use; they only
// reserve SMs and let the framework route the preemption through whichever
// mechanism it was built with.
package policy

import (
	"repro/internal/core"
)

// pickFn selects the next kernel that should receive an idle SM.
type pickFn func(fw *core.Framework) core.KernelID

// assignLoop hands out idle SMs one at a time according to pick, until no
// idle SM remains or pick declines.
func assignLoop(fw *core.Framework, pick pickFn) {
	for {
		smID := fw.FirstIdleSM()
		if smID < 0 {
			return
		}
		k := pick(fw)
		if !k.Valid() {
			return
		}
		fw.AssignSM(smID, k)
	}
}

// earliestPending returns the pending context whose buffered command arrived
// first, or -1.
func earliestPending(fw *core.Framework) int {
	if fw.NumPending() == 0 {
		return -1
	}
	return fw.PendingAt(0).Ctx.ID
}

// highestPriorityPending returns the pending context with the
// highest-priority buffered command, ties broken by arrival, or -1.
func highestPriorityPending(fw *core.Framework) int {
	n := fw.NumPending()
	if n == 0 {
		return -1
	}
	best := fw.PendingAt(0) // the heads are in arrival order
	for i := 1; i < n; i++ {
		if cmd := fw.PendingAt(i); cmd.Priority > best.Priority {
			best = cmd
		}
	}
	return best.Ctx.ID
}

// FCFS models the scheduling of current GPUs (§2.3): kernels are serviced
// in arrival order, the execution engine runs kernels of a single GPU
// context at a time, and independent kernels from that same context execute
// back-to-back on SMs that become free. Kernels from other contexts wait.
type FCFS struct {
	core.BasePolicy
}

// NewFCFS returns the baseline policy.
func NewFCFS() *FCFS { return &FCFS{} }

// Name implements core.Policy.
func (*FCFS) Name() string { return "FCFS" }

// PickPending implements core.Policy: admission in arrival order.
func (*FCFS) PickPending(fw *core.Framework) int { return earliestPending(fw) }

// OnActivated implements core.Policy.
func (p *FCFS) OnActivated(fw *core.Framework, k core.KernelID) { assignLoop(fw, p.pick) }

// OnSMIdle implements core.Policy.
func (p *FCFS) OnSMIdle(fw *core.Framework, smID int) { assignLoop(fw, p.pick) }

// pick: the engine belongs to the context of the oldest active kernel; the
// oldest kernel of that context that still has thread blocks to issue gets
// the SM (back-to-back execution within a context, §2.3).
func (*FCFS) pick(fw *core.Framework) core.KernelID {
	active := fw.Active()
	if len(active) == 0 {
		return core.NoKernel
	}
	head := fw.Kernel(active[0])
	ownerCtx := head.Ctx().ID
	for _, id := range active {
		k := fw.Kernel(id)
		if k.Ctx().ID == ownerCtx && fw.WantsMoreSMs(id) {
			return id
		}
	}
	return core.NoKernel
}

// NPQ is the non-preemptive priority-queues scheduler of §4.2: it always
// schedules the kernel with the highest priority, but never preempts — a
// high-priority kernel waits for SMs to drain naturally.
type NPQ struct {
	core.BasePolicy
}

// NewNPQ returns the non-preemptive priority-queues policy.
func NewNPQ() *NPQ { return &NPQ{} }

// Name implements core.Policy.
func (*NPQ) Name() string { return "NPQ" }

// PickPending implements core.Policy: admission in priority order.
func (*NPQ) PickPending(fw *core.Framework) int { return highestPriorityPending(fw) }

// OnActivated implements core.Policy.
func (p *NPQ) OnActivated(fw *core.Framework, k core.KernelID) { assignLoop(fw, priorityPick) }

// OnSMIdle implements core.Policy.
func (p *NPQ) OnSMIdle(fw *core.Framework, smID int) { assignLoop(fw, priorityPick) }

// priorityPick returns the highest-priority active kernel that still has
// thread blocks to issue, ties broken by activation order.
func priorityPick(fw *core.Framework) core.KernelID {
	best := core.NoKernel
	bestPrio := 0
	for _, id := range fw.Active() {
		if !fw.WantsMoreSMs(id) {
			continue
		}
		k := fw.Kernel(id)
		if !best.Valid() || k.Priority() > bestPrio {
			best = id
			bestPrio = k.Priority()
		}
	}
	return best
}

// PPQ is the preemptive priority-queues scheduler of §4.2: like NPQ, but a
// newly activated kernel preempts SMs away from lower-priority kernels when
// there are not enough idle SMs.
//
// With Shared=false the high-priority process has exclusive access to the
// execution engine: SMs are never given to a lower-priority kernel while a
// higher-priority kernel is active, even if they would otherwise sit idle
// (§4.3, Figure 6a). With Shared=true free resources are given to
// lower-priority kernels back-to-back, as current GPUs do for kernels of one
// process (Figure 6b).
type PPQ struct {
	core.BasePolicy
	// Shared grants leftover SMs to lower-priority kernels.
	Shared bool
}

// NewPPQ returns the preemptive priority-queues policy; shared selects the
// shared-access variant of §4.3.
func NewPPQ(shared bool) *PPQ { return &PPQ{Shared: shared} }

// Name implements core.Policy.
func (p *PPQ) Name() string {
	if p.Shared {
		return "PPQ-shared"
	}
	return "PPQ"
}

// PickPending implements core.Policy.
func (*PPQ) PickPending(fw *core.Framework) int { return highestPriorityPending(fw) }

// OnActivated implements core.Policy.
func (p *PPQ) OnActivated(fw *core.Framework, k core.KernelID) {
	assignLoop(fw, p.pick)
	p.preemptForDemand(fw, k)
}

// OnSMIdle implements core.Policy.
func (p *PPQ) OnSMIdle(fw *core.Framework, smID int) { assignLoop(fw, p.pick) }

func (p *PPQ) pick(fw *core.Framework) core.KernelID {
	if p.Shared {
		return priorityPick(fw)
	}
	// Exclusive access: only kernels at the highest active priority level
	// may receive SMs, whether or not they can use them.
	maxPrio, any := 0, false
	for _, id := range fw.Active() {
		k := fw.Kernel(id)
		if !any || k.Priority() > maxPrio {
			maxPrio = k.Priority()
			any = true
		}
	}
	if !any {
		return core.NoKernel
	}
	for _, id := range fw.Active() {
		k := fw.Kernel(id)
		if k.Priority() == maxPrio && fw.WantsMoreSMs(id) {
			return id
		}
	}
	return core.NoKernel
}

// preemptForDemand reserves SMs of strictly lower-priority kernels for
// kernel k until k's demand is covered, picking the lowest-priority victims
// first.
func (p *PPQ) preemptForDemand(fw *core.Framework, kid core.KernelID) {
	k := fw.Kernel(kid)
	if k == nil {
		return
	}
	for fw.DemandSMs(kid) > 0 {
		smID, ok := lowestPriorityVictim(fw, k.Priority())
		if !ok {
			return
		}
		fw.ReserveSM(smID, kid)
	}
}

// lowestPriorityVictim finds a running SM whose kernel has priority strictly
// below prio, choosing the lowest-priority kernel first and, within it, the
// SM with the fewest resident thread blocks (cheapest to preempt).
func lowestPriorityVictim(fw *core.Framework, prio int) (int, bool) {
	best := -1
	bestPrio := 0
	bestResident := 0
	for smID := 0; smID < fw.NumSMs(); smID++ {
		state, ksr, _ := fw.SMState(smID)
		if state != core.SMRunning {
			continue
		}
		k := fw.Kernel(ksr)
		if k == nil || k.Priority() >= prio {
			continue
		}
		res := fw.SMResident(smID)
		if best < 0 || k.Priority() < bestPrio || (k.Priority() == bestPrio && res < bestResident) {
			best = smID
			bestPrio = k.Priority()
			bestResident = res
		}
	}
	return best, best >= 0
}
