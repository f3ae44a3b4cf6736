// Package preempt implements the paper's two preemption mechanisms (§3.2)
// plus two extensions that open the mechanism axis: flush and adaptive.
//
// Context switch follows the classic operating-system approach: execution on
// the SM stops (after the pipeline drains, for precise exceptions), a
// microprogrammed trap routine saves the architectural context of every
// resident thread block — registers and the thread block's shared-memory
// partition — to the kernel's preallocated save area at the SM's share of
// global memory bandwidth, and the thread blocks are re-issued later through
// the kernel's Preempted Thread Block Queue.
//
// SM draining instead stops the issue of new thread blocks and lets resident
// thread blocks run to completion; nothing is saved or restored, but the
// preemption latency is dictated by the execution time of the running
// thread blocks — and a persistent kernel can never be preempted.
//
// Flush cancels the resident thread blocks of idempotent kernels outright
// and re-enqueues them to run from scratch: no save/restore traffic and
// near-zero latency, paid for in wasted (re-executed) work. Adaptive picks
// among the three per preemption with an online cost model fed by a
// per-kernel thread-block runtime estimator (internal/predict).
package preempt

import (
	"repro/internal/core"
)

// None is the mechanism for non-preemptive configurations (FCFS, NPQ,
// isolated baselines): policies under it never reserve SMs, so an actual
// preemption is a scheduling bug, not a runtime condition.
type None struct{}

// Name implements core.Mechanism.
func (None) Name() string { return "none" }

// Preempt implements core.Mechanism.
func (None) Preempt(fw *core.Framework, smID int) {
	panic("preempt: preemption without a mechanism")
}

// OnTBFinished implements core.Mechanism.
func (None) OnTBFinished(fw *core.Framework, sm int) {}

// Drain is the SM-draining mechanism.
type Drain struct{}

// Name implements core.Mechanism.
func (Drain) Name() string { return "draining" }

// Preempt implements core.Mechanism.
func (Drain) Preempt(fw *core.Framework, smID int) {
	if fw.SMResident(smID) == 0 {
		fw.PreemptionDone(smID)
		return
	}
	fw.MarkDraining(smID)
}

// OnTBFinished implements core.Mechanism.
func (Drain) OnTBFinished(fw *core.Framework, smID int) {
	if fw.SMResident(smID) == 0 {
		fw.PreemptionDone(smID)
	}
}

// ContextSwitch is the context-save/restore mechanism.
type ContextSwitch struct{}

// Name implements core.Mechanism.
func (ContextSwitch) Name() string { return "context switch" }

// Preempt implements core.Mechanism.
func (ContextSwitch) Preempt(fw *core.Framework, smID int) {
	// Preemption raises an asynchronous trap; the simplest way to provide
	// the precise exception it needs is to drain the pipeline of in-flight
	// instructions before jumping to the trap routine (§3.2).
	fw.Engine().AfterFunc(fw.Config().PipelineDrainLatency, csFreeze, fw, int64(smID))
}

// csFreeze is the freeze point at the end of the pipeline drain: stop all
// resident thread blocks (thread blocks that completed during the drain
// finished normally) and start the context save. It is a top-level function
// so the drain event captures no closure; the SM stays reserved throughout,
// so the preempted kernel is recoverable as SMKernel and the cancelled
// thread blocks as CanceledTBs.
func csFreeze(p any, x int64) {
	fw, smID := p.(*core.Framework), int(x)
	kid := fw.SMKernel(smID)
	tbs := fw.CancelResident(smID)
	if len(tbs) == 0 {
		fw.PreemptionDone(smID)
		return
	}
	dur := fw.SaveContext(kid, tbs)
	fw.MarkSaving(smID, dur)
	fw.Engine().AfterFunc(dur, csSaveDone, fw, int64(smID))
}

// csSaveDone completes the context save: the saved thread blocks enter the
// kernel's PTBQ and the SM is handed over.
func csSaveDone(p any, x int64) {
	fw, smID := p.(*core.Framework), int(x)
	fw.PushPreempted(fw.SMKernel(smID), fw.CanceledTBs(smID))
	fw.PreemptionDone(smID)
}

// OnTBFinished implements core.Mechanism. Thread blocks that complete while
// the pipeline is draining simply finish; the freeze point collects
// whatever is still resident.
func (ContextSwitch) OnTBFinished(fw *core.Framework, smID int) {}
