package policy

import (
	"repro/internal/core"
)

// DSS is the Dynamic Spatial Sharing policy of §3.4: it dynamically
// partitions the SMs among the active kernels using tokens that represent
// SM ownership. Each kernel receives a token budget on activation; one token
// is spent when an SM is assigned to the kernel and returned when the SM is
// deassigned (preemption or running out of work). Kernels may go into debt
// (negative token count) to soak up otherwise-idle SMs. The partitioning
// procedure (Algorithm 1) runs when a kernel enters the active queue and
// when an SM becomes idle, and repartitions until the token counts of all
// active kernels differ by at most one.
type DSS struct {
	core.BasePolicy
	// TotalProcs is the number of processes sharing the GPU; the equal-share
	// budget is floor(NumSMs/TotalProcs), with the remainder going to the
	// first kernels to reach the active queue (§4.4).
	TotalProcs int
	// TokenFunc, when non-nil, overrides the token budget for a kernel
	// (e.g. priority-weighted sharing). It receives the framework and the
	// kernel being activated.
	TokenFunc func(fw *core.Framework, k *core.KSR) int

	bonus       map[core.KernelID]bool
	bonusHeld   int
	inPartition bool
}

// NewDSS returns a DSS policy performing equal sharing among totalProcs
// processes.
func NewDSS(totalProcs int) *DSS {
	if totalProcs <= 0 {
		totalProcs = 1
	}
	return &DSS{TotalProcs: totalProcs, bonus: make(map[core.KernelID]bool)}
}

// Name implements core.Policy.
func (*DSS) Name() string { return "DSS" }

// PickPending implements core.Policy: admission in arrival order.
func (*DSS) PickPending(fw *core.Framework) int { return earliestPending(fw) }

// OnActivated implements core.Policy: assign the token budget and
// repartition.
func (p *DSS) OnActivated(fw *core.Framework, kid core.KernelID) {
	k := fw.Kernel(kid)
	if k == nil {
		return
	}
	switch {
	case p.TokenFunc != nil:
		k.Tokens = p.TokenFunc(fw, k)
	default:
		base := fw.NumSMs() / p.TotalProcs
		r := fw.NumSMs() % p.TotalProcs
		k.Tokens = base
		if p.bonusHeld < r {
			k.Tokens++
			p.bonusHeld++
			p.bonus[kid] = true
		}
	}
	p.partition(fw)
}

// OnSMIdle implements core.Policy: repartition.
func (p *DSS) OnSMIdle(fw *core.Framework, smID int) { p.partition(fw) }

// OnSMAttached implements core.Policy: spend a token.
func (p *DSS) OnSMAttached(fw *core.Framework, kid core.KernelID, smID int) {
	if k := fw.Kernel(kid); k != nil {
		k.Tokens--
	}
}

// OnSMDetached implements core.Policy: return the token.
func (p *DSS) OnSMDetached(fw *core.Framework, kid core.KernelID, smID int) {
	if k := fw.Kernel(kid); k != nil {
		k.Tokens++
	}
}

// OnKernelFinished implements core.Policy: release the remainder bonus.
func (p *DSS) OnKernelFinished(fw *core.Framework, kid core.KernelID) {
	if p.bonus[kid] {
		delete(p.bonus, kid)
		p.bonusHeld--
	}
}

// OnPreemptionDone implements core.Policy: if the kernel the SM was
// reserved for no longer needs it, retarget the reservation to the most
// deserving kernel (§3.4: the scheduler may change the kernel for which an
// SM is reserved during the preemption of that SM). A preemption completing
// is also one of the "events occurring in the system" on which the
// partitioning procedure runs: after a burst of kernel arrivals the first
// round of reservations cannot see SMs that are still mid-preemption, so
// this pass lets the partition converge to the token budgets.
func (p *DSS) OnPreemptionDone(fw *core.Framework, smID int) {
	defer p.partition(fw)
	next := fw.SMNext(smID)
	if fw.Kernel(next) != nil && fw.WantsMoreSMs(next) {
		return
	}
	best := core.NoKernel
	bestTokens := 0
	for _, id := range fw.Active() {
		if id == next || !fw.WantsMoreSMs(id) {
			continue
		}
		k := fw.Kernel(id)
		if !best.Valid() || k.Tokens > bestTokens {
			best = id
			bestTokens = k.Tokens
		}
	}
	if best.Valid() {
		fw.RetargetSM(smID, best)
	}
}

// partition is Algorithm 1. Token counts move through the attach/detach
// hooks, so the bookkeeping here matches the pseudo-code's increments and
// decrements exactly.
func (p *DSS) partition(fw *core.Framework) {
	if p.inPartition {
		return
	}
	p.inPartition = true
	defer func() { p.inPartition = false }()

	guard := 8*fw.NumSMs() + 64
	for iter := 0; iter < guard; iter++ {
		kmax := p.maxTokens(fw)
		if kmax == nil {
			return
		}
		// Idle SMs are handed out first; kernels may go into debt so that
		// SMs never idle while some kernel has work.
		if idle := fw.FirstIdleSM(); idle >= 0 {
			fw.AssignSM(idle, kmax.ID())
			continue
		}
		kmin := p.minTokens(fw, kmax.ID())
		if kmin == nil {
			return
		}
		if kmax.Tokens <= kmin.Tokens+1 {
			return
		}
		smID, ok := victimOf(fw, kmin.ID())
		if !ok {
			return
		}
		fw.ReserveSM(smID, kmax.ID())
	}
}

// maxTokens returns the active kernel with the highest token count among
// those that still have thread blocks to issue, ties broken by activation
// order.
func (p *DSS) maxTokens(fw *core.Framework) *core.KSR {
	var best *core.KSR
	for _, id := range fw.Active() {
		if !fw.WantsMoreSMs(id) {
			continue
		}
		k := fw.Kernel(id)
		if best == nil || k.Tokens > best.Tokens {
			best = k
		}
	}
	return best
}

// minTokens returns the active kernel (other than exclude) with the lowest
// token count among those holding at least one running SM.
func (p *DSS) minTokens(fw *core.Framework, exclude core.KernelID) *core.KSR {
	var best *core.KSR
	for _, id := range fw.Active() {
		if id == exclude {
			continue
		}
		k := fw.Kernel(id)
		if k.RunningSMs == 0 {
			continue
		}
		if best == nil || k.Tokens < best.Tokens {
			best = k
		}
	}
	return best
}

// victimOf picks which of the kernel's running SMs to preempt: the one with
// the fewest resident thread blocks (cheapest to vacate), ties broken by
// the highest SM id.
func victimOf(fw *core.Framework, kid core.KernelID) (int, bool) {
	best := -1
	bestResident := 0
	for smID := 0; smID < fw.NumSMs(); smID++ {
		state, ksr, _ := fw.SMState(smID)
		if state != core.SMRunning || ksr != kid {
			continue
		}
		// Ascending scan: <= hands ties to the higher SM id.
		if res := fw.SMResident(smID); best < 0 || res <= bestResident {
			best = smID
			bestResident = res
		}
	}
	return best, best >= 0
}
