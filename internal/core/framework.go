package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/gmem"
	"repro/internal/gpu"
	"repro/internal/mmu"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Framework is the extended execution engine: the SM driver plus the
// scheduling framework of §3.3. It owns the SMs, the KSRT, the SMST, the
// active queue and the per-context command buffers, and drives thread-block
// issue, completion and preemption under the configured Policy/Mechanism.
type Framework struct {
	eng    *sim.Engine
	cfg    gpu.Config
	policy Policy
	mech   Mechanism
	// mechObs is mech's optional TBObserver side, memoized at construction
	// so the per-completion notification costs no type assertion.
	mechObs TBObserver
	mem     *gmem.Manager // optional: backs preallocated context-save areas

	sms   []*sm
	slots []ksrSlot
	// active is the Active Queue: handles of active kernels in activation
	// order.
	active []KernelID

	// pendq holds, per context id, the FIFO of launch commands whose head
	// occupies that context's command buffer. An entry lives from the
	// context's first submission until ReleaseContext, which moves it to
	// cpFree; a later context's first submission takes it from there, so
	// queue backing arrays are reused across the processes of an open
	// system.
	pendq  map[int]*ctxPending
	cpFree []*ctxPending
	// ksrFree holds the KSRs of finished kernels for reuse by allocKSR. A
	// KSR goes back only after its kernel's OnDone callback has returned.
	ksrFree []*KSR
	// pendingCtxs keeps contexts with pending commands in the arrival order
	// of their current head. It stays sorted by head-enqueue time (stable on
	// ties), so insertion is a binary search and removal is O(1) lookup via
	// each entry's pos index.
	pendingCtxs []*ctxPending
	// ctxScratch is the reusable buffer PendingContexts copies ids into.
	ctxScratch []int
	// tbScratch is the reusable buffer ResidentTBs copies snapshots into.
	tbScratch []ResidentTBInfo

	// occ memoizes the occupancy calculation per kernel spec: Occupancy
	// re-derives register/shared-memory/thread limits on every call, and the
	// submit path used to pay it twice per launch.
	occ map[*trace.KernelSpec]occInfo

	opts      Options // ActiveLimit and TimeScale filled in
	launchSeq uint64

	timeline *Timeline
	stats    Stats

	activating bool
}

type ksrSlot struct {
	k   *KSR // nil when free
	gen uint32
}

// ctxPending is one context's command-buffer queue plus its position in the
// arrival-order list. head indexes the current buffer occupant; consumed
// entries are trimmed lazily so the slice capacity is reused.
type ctxPending struct {
	id   int
	cmds []*LaunchCmd
	head int
	pos  int // index in fw.pendingCtxs, -1 when not listed
}

// empty reports whether the context has no pending commands.
func (cp *ctxPending) empty() bool { return cp.head == len(cp.cmds) }

// headCmd returns the command occupying the context's buffer.
func (cp *ctxPending) headCmd() *LaunchCmd { return cp.cmds[cp.head] }

// occInfo is the memoized result of the occupancy calculator for one spec.
type occInfo struct {
	occ  int
	smem int
}

// Options holds the per-GPU engine settings; the zero value means no
// jitter, an active queue of NumSMs kernels and unscaled trace timing.
type Options struct {
	// Jitter is the per-thread-block execution-time jitter fraction, at most
	// 1: each block's time is scaled uniformly in [1-Jitter, 1+Jitter).
	// 0 or negative disables jitter.
	Jitter float64
	// Seed drives the deterministic jitter hash.
	Seed uint64
	// ActiveLimit overrides the active-queue capacity (0 = NumSMs). The
	// paper sets it to the number of SMs (§3.3); mobile configurations may
	// want a larger ratio of active kernels to SMs.
	ActiveLimit int
	// TimeScale multiplies every thread block's execution time (0 = 1). The
	// cluster layer models straggler nodes — thermally throttled or
	// misbehaving machines that serve the same work slower — with values > 1.
	TimeScale float64
}

// New builds a framework for the given machine, policy and mechanism. mem,
// when non-nil, is the physical memory the framework preallocates
// per-kernel context-save areas from (§3.2); timeline, when non-nil,
// records SM occupancy.
func New(eng *sim.Engine, cfg gpu.Config, policy Policy, mech Mechanism, opts Options, mem *gmem.Manager, timeline *Timeline) (*Framework, error) {
	fw := &Framework{}
	if err := fw.Reset(eng, cfg, policy, mech, opts, mem, timeline); err != nil {
		return nil, err
	}
	return fw, nil
}

// Reset returns the framework to the state New(eng, cfg, policy, mech, opts,
// mem, timeline) produces, keeping every slice's and map's capacity: the
// SMs (their resident sets, TLBs and context registers), the KSRT and its
// KSRs, the command-buffer queues and the memoized occupancies. Kernels and
// commands in flight are dropped without completing; their KSRs and queues
// go back to the free lists. Launch ids and KSR generations start over, as
// do the statistics. The engine must have been reset first (or be fresh):
// events the old kernels scheduled would otherwise fire into the new state.
// On error the framework is unusable until a successful Reset.
func (fw *Framework) Reset(eng *sim.Engine, cfg gpu.Config, policy Policy, mech Mechanism, opts Options, mem *gmem.Manager, timeline *Timeline) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if eng == nil || policy == nil || mech == nil {
		return fmt.Errorf("core: nil engine, policy or mechanism")
	}
	// A fraction above 1 would yield negative execution times.
	if opts.Jitter > 1 || math.IsNaN(opts.Jitter) {
		return fmt.Errorf("core: jitter fraction %v outside [0, 1]", opts.Jitter)
	}
	if opts.ActiveLimit < 0 {
		return fmt.Errorf("core: negative active-kernel limit %d", opts.ActiveLimit)
	}
	if opts.TimeScale < 0 || math.IsNaN(opts.TimeScale) {
		return fmt.Errorf("core: time scale must be positive, got %g", opts.TimeScale)
	}
	if opts.ActiveLimit == 0 {
		opts.ActiveLimit = cfg.NumSMs
	}
	if opts.TimeScale == 0 {
		opts.TimeScale = 1
	}
	fw.eng, fw.cfg, fw.policy, fw.mech = eng, cfg, policy, mech
	fw.opts, fw.mem, fw.timeline = opts, mem, timeline
	fw.mechObs, _ = mech.(TBObserver)
	keep := min(len(fw.sms), cfg.NumSMs)
	clear(fw.sms[keep:])
	fw.sms = slices.Grow(fw.sms[:keep], cfg.NumSMs-keep)
	for len(fw.sms) < cfg.NumSMs {
		fw.sms = append(fw.sms, &sm{fw: fw, id: len(fw.sms)})
	}
	for _, s := range fw.sms {
		s.reset(cfg.TLBEntriesPerSM)
	}
	for i := range fw.slots {
		if k := fw.slots[i].k; k != nil {
			k.Cmd, k.ptbq = nil, k.ptbq[:0]
			fw.ksrFree = append(fw.ksrFree, k)
		}
	}
	fw.slots = slices.Grow(fw.slots[:0], opts.ActiveLimit)[:opts.ActiveLimit]
	clear(fw.slots)
	fw.active = fw.active[:0]
	// pendq's map order is random; free the queues in context-id order so
	// that reuse is deterministic.
	start := len(fw.cpFree)
	for _, cp := range fw.pendq {
		fw.cpFree = append(fw.cpFree, cp)
	}
	slices.SortFunc(fw.cpFree[start:], func(a, b *ctxPending) int { return cmp.Compare(a.id, b.id) })
	for _, cp := range fw.cpFree[start:] {
		clear(cp.cmds)
		cp.cmds, cp.head, cp.pos = cp.cmds[:0], 0, -1
	}
	if fw.pendq == nil {
		fw.pendq = make(map[int]*ctxPending)
		fw.occ = make(map[*trace.KernelSpec]occInfo)
	}
	clear(fw.pendq)
	clear(fw.pendingCtxs)
	fw.pendingCtxs = fw.pendingCtxs[:0]
	fw.ctxScratch = fw.ctxScratch[:0]
	fw.tbScratch = fw.tbScratch[:0]
	clear(fw.occ)
	fw.launchSeq = 0
	fw.stats = Stats{}
	fw.activating = false
	return nil
}

// Engine returns the simulation engine.
func (fw *Framework) Engine() *sim.Engine { return fw.eng }

// Config returns the machine configuration.
func (fw *Framework) Config() *gpu.Config { return &fw.cfg }

// Mechanism returns the installed preemption mechanism.
func (fw *Framework) Mechanism() Mechanism { return fw.mech }

// Stats returns a snapshot of the activity counters.
func (fw *Framework) Stats() Stats { return fw.stats }

// Timeline returns the attached timeline recorder (possibly nil).
func (fw *Framework) Timeline() *Timeline { return fw.timeline }

// NumSMs returns the number of SMs.
func (fw *Framework) NumSMs() int { return len(fw.sms) }

// ActiveLimit returns the active-queue capacity.
func (fw *Framework) ActiveLimit() int { return fw.opts.ActiveLimit }

// --- Submission and activation -----------------------------------------

// Submit delivers a kernel-launch command to the framework (the command
// dispatcher placing it in the context's command buffer). The command waits
// until the policy admits it into the active queue.
func (fw *Framework) Submit(cmd *LaunchCmd) error {
	if cmd == nil || cmd.Ctx == nil || cmd.Spec == nil {
		return fmt.Errorf("core: invalid launch command")
	}
	if _, err := fw.occupancy(cmd.Spec); err != nil {
		return err
	}
	cmd.Launch = fw.nextLaunch()
	cmd.Enqueued = fw.eng.Now()
	cmd.Priority = cmd.Ctx.Priority
	ctxID := cmd.Ctx.ID
	cp := fw.pendq[ctxID]
	if cp == nil {
		if n := len(fw.cpFree); n > 0 {
			cp, fw.cpFree = fw.cpFree[n-1], fw.cpFree[:n-1]
			cp.id = ctxID
		} else {
			cp = &ctxPending{id: ctxID, pos: -1}
		}
		fw.pendq[ctxID] = cp
	}
	wasEmpty := cp.empty()
	if wasEmpty && cp.head > 0 {
		cp.cmds = cp.cmds[:0]
		cp.head = 0
	}
	cp.cmds = append(cp.cmds, cmd)
	if wasEmpty {
		// The new head's enqueue time is the current (monotonic) clock, so
		// appending keeps pendingCtxs sorted and ties behind earlier arrivals.
		cp.pos = len(fw.pendingCtxs)
		fw.pendingCtxs = append(fw.pendingCtxs, cp)
	}
	fw.stats.KernelsSubmitted++
	fw.tryActivate()
	return nil
}

func (fw *Framework) nextLaunch() uint64 {
	fw.launchSeq++
	return fw.launchSeq
}

// occupancy returns the memoized occupancy and shared-memory configuration
// for the spec, validating and computing it on first sight. Specs are
// treated as immutable after submission (they are throughout the tree).
func (fw *Framework) occupancy(spec *trace.KernelSpec) (occInfo, error) {
	if info, ok := fw.occ[spec]; ok {
		return info, nil
	}
	occ, err := fw.cfg.Occupancy(spec)
	if err != nil {
		return occInfo{}, err
	}
	smem, _ := fw.cfg.SharedMemConfigFor(spec.SharedMemPerTB)
	info := occInfo{occ: occ, smem: smem}
	fw.occ[spec] = info
	return info, nil
}

// ReleaseContext retires a GPU context from the framework: its (empty)
// command-buffer queue leaves pendq for the free list, so the per-context
// bookkeeping does not grow with the lifetime total of an open system's
// admitted processes and the next context reuses the queue. It is
// an error to release a context that still has pending commands or active
// kernels; context ids are never reused before a Reset, so per-SM
// installed-context state needs no scrubbing.
func (fw *Framework) ReleaseContext(ctxID int) error {
	if cp := fw.pendq[ctxID]; cp != nil && !cp.empty() {
		return fmt.Errorf("core: releasing context %d with %d pending commands", ctxID, len(cp.cmds)-cp.head)
	}
	for _, id := range fw.active {
		if k := fw.Kernel(id); k != nil && k.Ctx().ID == ctxID {
			return fmt.Errorf("core: releasing context %d with active kernel %s", ctxID, k.Spec().Name)
		}
	}
	if cp := fw.pendq[ctxID]; cp != nil {
		delete(fw.pendq, ctxID)
		cp.cmds, cp.head = cp.cmds[:0], 0
		fw.cpFree = append(fw.cpFree, cp)
	}
	return nil
}

// PendingContexts returns the ids of contexts whose command buffer holds a
// command, in arrival order of the buffered command. The returned slice is
// a copy (reused across calls): mutating it cannot corrupt the framework's
// arrival order, and it is only valid until the next call.
func (fw *Framework) PendingContexts() []int {
	fw.ctxScratch = fw.ctxScratch[:0]
	for _, cp := range fw.pendingCtxs {
		fw.ctxScratch = append(fw.ctxScratch, cp.id)
	}
	return fw.ctxScratch
}

// PendingHead returns the command buffered for the given context, or nil.
func (fw *Framework) PendingHead(ctxID int) *LaunchCmd {
	cp := fw.pendq[ctxID]
	if cp == nil || cp.empty() {
		return nil
	}
	return cp.headCmd()
}

func (fw *Framework) popPending(ctxID int) *LaunchCmd {
	cp := fw.pendq[ctxID]
	if cp == nil || cp.empty() {
		return nil
	}
	cmd := cp.headCmd()
	cp.cmds[cp.head] = nil // release the reference for reuse
	cp.head++
	fw.removePendingAt(cp.pos)
	cp.pos = -1
	if !cp.empty() {
		// Another command takes over the buffer; its arrival order is the
		// new head's enqueue time.
		fw.insertPendingCtx(cp)
	} else {
		cp.cmds = cp.cmds[:0]
		cp.head = 0
	}
	return cmd
}

// removePendingAt removes the entry at position pos from the arrival-order
// list, keeping every entry's pos index current.
func (fw *Framework) removePendingAt(pos int) {
	list := fw.pendingCtxs
	copy(list[pos:], list[pos+1:])
	last := len(list) - 1
	list[last] = nil
	fw.pendingCtxs = list[:last]
	for i := pos; i < last; i++ {
		fw.pendingCtxs[i].pos = i
	}
}

// insertPendingCtx re-inserts cp into pendingCtxs keeping the list sorted by
// head enqueue time (stable on ties by existing order). The list is sorted,
// so the position comes from a binary search instead of a linear scan.
func (fw *Framework) insertPendingCtx(cp *ctxPending) {
	enq := cp.headCmd().Enqueued
	lo, hi := 0, len(fw.pendingCtxs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if fw.pendingCtxs[mid].headCmd().Enqueued > enq {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	fw.pendingCtxs = append(fw.pendingCtxs, nil)
	copy(fw.pendingCtxs[lo+1:], fw.pendingCtxs[lo:])
	fw.pendingCtxs[lo] = cp
	for i := lo; i < len(fw.pendingCtxs); i++ {
		fw.pendingCtxs[i].pos = i
	}
}

// tryActivate moves pending commands into the active queue while there is
// space and the policy admits one.
func (fw *Framework) tryActivate() {
	if fw.activating {
		return // re-entrant call from a policy hook; outer loop continues
	}
	fw.activating = true
	defer func() { fw.activating = false }()
	for len(fw.active) < fw.opts.ActiveLimit && len(fw.pendingCtxs) > 0 {
		ctxID := fw.policy.PickPending(fw)
		if ctxID < 0 {
			return
		}
		cmd := fw.popPending(ctxID)
		if cmd == nil {
			panic(fmt.Sprintf("core: policy %s picked context %d with empty buffer", fw.policy.Name(), ctxID))
		}
		k := fw.allocKSR(cmd)
		fw.active = append(fw.active, k.id)
		if len(fw.active) > fw.stats.MaxActive {
			fw.stats.MaxActive = len(fw.active)
		}
		fw.stats.KernelsActivated++
		fw.policy.OnActivated(fw, k.id)
	}
}

func (fw *Framework) allocKSR(cmd *LaunchCmd) *KSR {
	slot := -1
	for i := range fw.slots {
		if fw.slots[i].k == nil {
			slot = i
			break
		}
	}
	if slot < 0 {
		panic("core: active queue has space but KSRT is full")
	}
	info, err := fw.occupancy(cmd.Spec)
	if err != nil {
		panic(fmt.Sprintf("core: occupancy validated at submit but failed at activation: %v", err))
	}
	fw.slots[slot].gen++
	var k *KSR
	if n := len(fw.ksrFree); n > 0 {
		k, fw.ksrFree = fw.ksrFree[n-1], fw.ksrFree[:n-1]
	} else {
		k = &KSR{}
	}
	*k = KSR{
		id:          KernelID{slot: slot, gen: fw.slots[slot].gen},
		Cmd:         cmd,
		TBsPerSM:    info.occ,
		SmemConfig:  info.smem,
		Activated:   fw.eng.Now(),
		ctxBytes:    fw.cfg.TBContextBytes(cmd.Spec),
		jitterState: rng.Mix(rng.Mix(rng.HashStart, fw.opts.Seed), cmd.Launch),
		ptbq:        k.ptbq[:0],
	}
	fw.slots[slot].k = k
	fw.allocSaveArea(k)
	return k
}

// allocSaveArea preallocates the kernel's context-save area: space for the
// contexts of every thread block that could be preempted at once (§3.3: all
// active thread blocks of a kernel may be preempted).
func (fw *Framework) allocSaveArea(k *KSR) {
	if fw.mem == nil {
		return
	}
	maxPreempted := int64(fw.cfg.NumSMs) * int64(k.TBsPerSM)
	size := maxPreempted * k.ctxBytes
	if size <= 0 {
		return
	}
	pa, err := fw.mem.Alloc(k.Ctx().ID, size)
	if err != nil {
		fw.stats.SaveAreaFailures++
		return
	}
	va, err := k.Ctx().PageTable.AllocRegion(pa, size)
	if err != nil {
		fw.stats.SaveAreaFailures++
		fw.mem.Free(pa) //nolint:errcheck // just allocated
		return
	}
	k.savePA = pa
	k.saveVA = va
}

func (fw *Framework) freeSaveArea(k *KSR) {
	if fw.mem == nil || k.saveVA == 0 {
		return
	}
	maxPreempted := int64(fw.cfg.NumSMs) * int64(k.TBsPerSM)
	size := maxPreempted * k.ctxBytes
	npages := int((size + mmu.PageSize - 1) / mmu.PageSize)
	k.Ctx().PageTable.Unmap(k.saveVA, npages) //nolint:errcheck // mapped at alloc
	fw.mem.Free(k.savePA)                     //nolint:errcheck // allocated at alloc
	k.saveVA, k.savePA = 0, 0
}

// --- Accessors for policies and mechanisms ------------------------------

// Active returns the active queue: handles of active kernels in activation
// order. The returned slice is read-only.
func (fw *Framework) Active() []KernelID { return fw.active }

// Kernel resolves a handle to its KSR, or nil if the kernel finished (the
// handle is stale) or the handle is invalid.
func (fw *Framework) Kernel(id KernelID) *KSR {
	if id.slot < 0 || id.slot >= len(fw.slots) {
		return nil
	}
	s := fw.slots[id.slot]
	if s.k == nil || s.gen != id.gen {
		return nil
	}
	return s.k
}

// SMState returns the SMST entry for the given SM: its state, the kernel
// occupying it, and the kernel it is reserved for.
func (fw *Framework) SMState(smID int) (state SMState, ksr, next KernelID) {
	s := fw.sms[smID]
	return s.state, s.ksr, s.next
}

// SMResident returns the number of thread blocks resident on the SM.
func (fw *Framework) SMResident(smID int) int { return len(fw.sms[smID].resident) }

// FirstIdleSM returns the lowest-numbered idle SM, or -1.
func (fw *Framework) FirstIdleSM() int {
	for _, s := range fw.sms {
		if s.state == SMIdle {
			return s.id
		}
	}
	return -1
}

// DemandSMs estimates how many more SMs kernel k can profitably use: the
// SMs needed for its issueable thread blocks beyond those already incoming.
func (fw *Framework) DemandSMs(k KernelID) int {
	ksr := fw.Kernel(k)
	if ksr == nil {
		return 0
	}
	uncovered := ksr.IssueableTBs() - ksr.Incoming*ksr.TBsPerSM
	if uncovered <= 0 {
		return 0
	}
	return (uncovered + ksr.TBsPerSM - 1) / ksr.TBsPerSM
}

// WantsMoreSMs reports whether kernel k has issueable thread blocks not
// covered by SMs already on their way to it.
func (fw *Framework) WantsMoreSMs(k KernelID) bool { return fw.DemandSMs(k) > 0 }

// --- SM assignment ------------------------------------------------------

// AssignSM gives an idle SM to kernel k: the SM driver performs the setup
// (installing KSR and context state) and then issues thread blocks until
// the SM is fully occupied (§3.2, Figure 3).
func (fw *Framework) AssignSM(smID int, kid KernelID) {
	s := fw.sms[smID]
	k := fw.Kernel(kid)
	if k == nil {
		panic(fmt.Sprintf("core: assigning SM %d to stale kernel %v", smID, kid))
	}
	if s.state != SMIdle {
		panic(fmt.Sprintf("core: assigning non-idle SM %d (state %v)", smID, s.state))
	}
	s.state = SMRunning
	s.ksr = kid
	s.settingUp = true
	s.busyFrom = fw.eng.Now()
	k.Incoming++
	k.Held++
	k.RunningSMs++
	fw.policy.OnSMAttached(fw, kid, smID)
	fw.timeline.transition(smID, fw.eng.Now(), IntervalSetup, k.Spec().Name, k.Cmd.Launch, k.Ctx().ID)
	setup := fw.cfg.SMSetupLatency
	fw.stats.SetupTime += setup
	fw.eng.AfterFunc(setup, setupDoneEvent, s, packKernelID(kid))
}

// packKernelID flattens a (valid) handle into the scalar argument of the
// engine's closure-free dispatch; unpackKernelID restores it losslessly.
func packKernelID(id KernelID) int64 {
	return int64(id.slot)<<32 | int64(id.gen)
}

func unpackKernelID(x int64) KernelID {
	return KernelID{slot: int(x >> 32), gen: uint32(x)}
}

// setupDoneEvent is the closure-free completion callback of the SM-setup
// latency event.
func setupDoneEvent(p any, x int64) {
	s := p.(*sm)
	s.fw.setupDone(s, unpackKernelID(x))
}

// setupDone completes SM setup and starts issuing thread blocks.
func (fw *Framework) setupDone(s *sm, kid KernelID) {
	s.settingUp = false
	k := fw.Kernel(kid)
	if s.state == SMReserved {
		// The SM was reserved while setting up; run the deferred
		// preemption now (there is nothing resident, so it is quick).
		if k != nil {
			k.Incoming--
		}
		fw.mech.Preempt(fw, s.id)
		return
	}
	if k == nil || !k.HasWork() {
		if k != nil {
			k.Incoming--
		}
		fw.smBecameIdle(s)
		return
	}
	k.Incoming--
	ctx := k.Ctx()
	if s.ctxOnSM != ctx.ID {
		// Installing a different GPU context: load the context-id and base
		// page-table registers and flush the SM's TLB (§3.1).
		s.tlb.Flush()
		s.ctxOnSM = ctx.ID
	}
	fw.timeline.transition(s.id, fw.eng.Now(), IntervalRun, k.Spec().Name, k.Cmd.Launch, ctx.ID)
	fw.fillSM(s)
	if len(s.resident) == 0 {
		fw.smBecameIdle(s)
	}
}

// fillSM issues thread blocks to the SM until it is fully occupied or the
// kernel runs out of work.
func (fw *Framework) fillSM(s *sm) {
	if s.state != SMRunning || s.settingUp {
		return
	}
	k := fw.Kernel(s.ksr)
	if k == nil {
		return
	}
	for len(s.resident) < k.TBsPerSM && k.HasWork() {
		fw.issueTB(s, k)
	}
}

// issueTB issues one thread block to the SM. Preempted thread blocks are
// issued before fresh ones to keep the PTBQ bounded (§3.3); a preempted
// thread block first restores its context at the SM's bandwidth share.
func (fw *Framework) issueTB(s *sm, k *KSR) {
	now := fw.eng.Now()
	if !k.started {
		k.started = true
		if k.Cmd.OnStart != nil {
			k.Cmd.OnStart(now)
		}
	}
	var tb residentTB
	if len(k.ptbq) > 0 {
		h := k.ptbq[0]
		k.ptbq = k.ptbq[1:]
		if h.Restart {
			// Flushed thread block: no context to restore, it simply runs
			// again from scratch for its full (deterministically jittered)
			// duration.
			tb = residentTB{index: int32(h.Index), start: now, end: now + fw.tbDuration(k, h.Index)}
			fw.stats.TBsRestarted++
		} else {
			restore := fw.cfg.ContextMoveTime(k.ctxBytes)
			fw.touchSaveArea(s, k, h.Index)
			tb = residentTB{index: int32(h.Index), restored: true, start: now, end: now + restore + h.Remaining}
			fw.stats.TBsRestored++
			fw.stats.ContextRestored += k.ctxBytes
			fw.stats.RestoreTime += restore
		}
	} else {
		idx := k.NextTB
		k.NextTB++
		tb = residentTB{index: int32(idx), start: now, end: now + fw.tbDuration(k, idx)}
	}
	k.Running++
	fw.stats.TBsIssued++
	tb.seq = s.issued
	s.issued++
	tb.ev = fw.eng.AtFunc(tb.end, completeTBEvent, s, int64(tb.index))
	s.resident = append(s.resident, tb)
}

// completeTBEvent is the closure-free completion callback of a thread
// block's execution event.
func completeTBEvent(p any, x int64) {
	s := p.(*sm)
	s.fw.completeTB(s, int(x))
}

// tbDuration returns the jittered execution time of thread block idx of
// kernel k.
func (fw *Framework) tbDuration(k *KSR, idx int) sim.Time {
	d := sim.Time(float64(k.Spec().TBTime) * fw.jitterFactor(k, idx) * fw.opts.TimeScale)
	if d < 1 {
		d = 1
	}
	return d
}

// jitterFactor returns thread block idx's execution-time factor,
// rng.Jitter over rng.Hash64(seed, launch, idx): allocKSR mixed (seed,
// launch) into k.jitterState once, so each thread block costs one round
// plus the finalizer.
func (fw *Framework) jitterFactor(k *KSR, idx int) float64 {
	return rng.Jitter(fw.opts.Jitter, rng.Finish(rng.Mix(k.jitterState, uint64(idx))))
}

// touchSaveArea exercises the SM's TLB and the process page table for the
// context save/restore traffic of one thread block (§3.1/§3.2: the trap
// routine reads and writes the preallocated save area through the process's
// address space).
func (fw *Framework) touchSaveArea(s *sm, k *KSR, tbIndex int) {
	if k.saveVA == 0 {
		return
	}
	bytes := k.ctxBytes
	slotBase := k.saveVA + mmu.VAddr(int64(tbIndex%(fw.cfg.NumSMs*k.TBsPerSM))*bytes)
	// Touch the first byte of each page of the thread block's slot.
	for off := int64(0); off < bytes; off += mmu.PageSize {
		s.tlb.Lookup(k.Ctx().PageTable, slotBase+mmu.VAddr(off)) //nolint:errcheck // mapped at activation
	}
}

// completeTB handles a thread-block completion on SM s.
func (fw *Framework) completeTB(s *sm, index int) {
	k := fw.Kernel(s.ksr)
	if k == nil {
		panic(fmt.Sprintf("core: thread block completed on SM %d with stale kernel", s.id))
	}
	pos := -1
	for i := range s.resident {
		if int(s.resident[i].index) == index {
			pos = i
			break
		}
	}
	if pos < 0 {
		panic(fmt.Sprintf("core: completion of non-resident thread block %d on SM %d", index, s.id))
	}
	elapsed := fw.eng.Now() - s.resident[pos].start
	restored := s.resident[pos].restored
	last := len(s.resident) - 1
	s.resident[pos] = s.resident[last]
	s.resident = s.resident[:last]
	k.Running--
	k.Done++
	fw.stats.TBsCompleted++
	if fw.mechObs != nil {
		fw.mechObs.ObserveTBFinished(fw, s.ksr, s.id, elapsed, restored)
	}

	finished := k.Finished()
	switch s.state {
	case SMRunning:
		if !finished && k.HasWork() {
			fw.fillSM(s)
		}
		if finished {
			fw.finishKernel(k)
		}
		// The SM idles only if the policy hooks run by finishKernel did not
		// re-purpose it: a hook may have reserved it (state Reserved) or,
		// via an empty-SM preemption completing synchronously, already
		// started setting it up for another kernel (settingUp).
		if len(s.resident) == 0 && s.state == SMRunning && !s.settingUp {
			fw.smBecameIdle(s)
		}
	case SMReserved:
		if finished {
			fw.finishKernel(k)
		}
		fw.mech.OnTBFinished(fw, s.id)
	default:
		panic(fmt.Sprintf("core: thread block completed on idle SM %d", s.id))
	}
}

// smBecameIdle transitions an SM to idle and lets the policy react.
func (fw *Framework) smBecameIdle(s *sm) {
	prev := s.ksr
	if s.busyFrom >= 0 {
		fw.stats.SMBusyTime += fw.eng.Now() - s.busyFrom
	}
	s.state = SMIdle
	s.ksr = NoKernel
	s.next = NoKernel
	s.busyFrom = -1
	fw.timeline.closeOpen(s.id, fw.eng.Now())
	if k := fw.Kernel(prev); k != nil {
		k.Held--
		k.RunningSMs--
		fw.policy.OnSMDetached(fw, prev, s.id)
	}
	fw.policy.OnSMIdle(fw, s.id)
}

// finishKernel retires a completed kernel: it leaves the active queue, its
// KSR is freed, the process is notified, and pending commands get a chance
// to activate. The KSR struct returns to the free list only once OnDone has
// returned: the callback may submit and activate further kernels, and those
// must not be handed the struct still on this call's stack.
func (fw *Framework) finishKernel(k *KSR) {
	if !k.Finished() {
		panic("core: finishing unfinished kernel")
	}
	if len(k.ptbq) != 0 {
		panic("core: finishing kernel with preempted thread blocks")
	}
	for i, id := range fw.active {
		if id == k.id {
			fw.active = append(fw.active[:i], fw.active[i+1:]...)
			break
		}
	}
	fw.freeSaveArea(k)
	fw.slots[k.id.slot].k = nil
	fw.stats.KernelsFinished++
	fw.policy.OnKernelFinished(fw, k.id)
	if k.Cmd.OnDone != nil {
		k.Cmd.OnDone(fw.eng.Now())
	}
	k.Cmd = nil
	fw.ksrFree = append(fw.ksrFree, k)
	fw.tryActivate()
}

// --- Preemption ----------------------------------------------------------

// ReserveSM reserves a running SM for kernel kid: the current kernel is
// preempted through the framework's mechanism, and once preemption
// completes the SM is set up for kid (§3.2). Ownership (for accounting and
// DSS tokens) transfers at reservation time.
func (fw *Framework) ReserveSM(smID int, kid KernelID) {
	s := fw.sms[smID]
	next := fw.Kernel(kid)
	if next == nil {
		panic(fmt.Sprintf("core: reserving SM %d for stale kernel %v", smID, kid))
	}
	if s.state != SMRunning {
		panic(fmt.Sprintf("core: reserving SM %d in state %v", smID, s.state))
	}
	old := s.ksr
	s.state = SMReserved
	s.next = kid
	s.reservedAt = fw.eng.Now()
	next.Incoming++
	next.Held++
	fw.stats.Preemptions++
	if ko := fw.Kernel(old); ko != nil {
		ko.Held--
		ko.RunningSMs--
		fw.policy.OnSMDetached(fw, old, smID)
	}
	fw.policy.OnSMAttached(fw, kid, smID)
	if !s.settingUp {
		fw.mech.Preempt(fw, smID)
	}
}

// RetargetSM changes the kernel a reserved SM is destined for (§3.4: the
// scheduler may change the kernel for which an SM is reserved during the
// preemption of that SM).
func (fw *Framework) RetargetSM(smID int, kid KernelID) {
	s := fw.sms[smID]
	if s.state != SMReserved {
		panic(fmt.Sprintf("core: retargeting SM %d in state %v", smID, s.state))
	}
	if s.next == kid {
		return
	}
	next := fw.Kernel(kid)
	if next == nil {
		panic(fmt.Sprintf("core: retargeting SM %d to stale kernel %v", smID, kid))
	}
	if old := fw.Kernel(s.next); old != nil {
		old.Incoming--
		old.Held--
		fw.policy.OnSMDetached(fw, s.next, smID)
	}
	s.next = kid
	next.Incoming++
	next.Held++
	fw.policy.OnSMAttached(fw, kid, smID)
}

// CancelResident stops every resident thread block of a reserved SM and
// returns their preemption handles (index and remaining execution time).
// Used by the context-switch mechanism at the freeze point. The returned
// slice is a per-SM buffer reused by the next CancelResident on the same SM
// — which cannot happen before the current preemption completes, since the
// SM stays reserved until PreemptionDone.
func (fw *Framework) CancelResident(smID int) []PreemptedTB {
	s := fw.sms[smID]
	k := fw.Kernel(s.ksr)
	now := fw.eng.Now()
	s.sortResident()
	s.saveBuf = s.saveBuf[:0]
	for i := range s.resident {
		tb := &s.resident[i]
		fw.eng.Cancel(tb.ev)
		rem := tb.end - now
		if rem < 0 {
			rem = 0
		}
		s.saveBuf = append(s.saveBuf, PreemptedTB{Index: int(tb.index), Remaining: rem})
		if k != nil {
			k.Running--
		}
		fw.stats.TBsPreempted++
	}
	s.resident = s.resident[:0]
	return s.saveBuf
}

// CanceledTBs returns the handles captured by the most recent CancelResident
// on the SM (the same per-SM buffer it returned). It lets a mechanism's
// closure-free save-completion callback recover the preempted thread blocks
// without capturing the slice.
func (fw *Framework) CanceledTBs(smID int) []PreemptedTB { return fw.sms[smID].saveBuf }

// FlushResident cancels every resident thread block of a reserved SM and
// re-enqueues them through the kernel's PTBQ to run again from scratch (the
// flush mechanism for idempotent kernels): no context is saved, but the
// execution time the cancelled thread blocks had already accumulated is
// discarded, which FlushResident accounts as Stats.WastedWork. Returns the
// number of flushed thread blocks.
func (fw *Framework) FlushResident(smID int) int {
	s := fw.sms[smID]
	k := fw.Kernel(s.ksr)
	now := fw.eng.Now()
	n := len(s.resident)
	if n == 0 {
		return 0
	}
	if k == nil {
		panic(fmt.Sprintf("core: flushing SM %d with resident thread blocks but stale kernel", smID))
	}
	if !k.Spec().Idempotent {
		panic(fmt.Sprintf("core: flushing non-idempotent kernel %s", k.Spec().Name))
	}
	s.sortResident()
	s.saveBuf = s.saveBuf[:0]
	for i := range s.resident {
		tb := &s.resident[i]
		fw.eng.Cancel(tb.ev)
		elapsed := now - tb.start
		if tb.restored {
			// A restored block's stint opened with its context restore;
			// that window is already charged to Stats.RestoreTime, so only
			// the re-execution beyond it is newly discarded work.
			elapsed -= fw.cfg.ContextMoveTime(k.ctxBytes)
		}
		if elapsed < 0 {
			elapsed = 0
		}
		fw.stats.WastedWork += elapsed
		fw.stats.TBsFlushed++
		k.Running--
		s.saveBuf = append(s.saveBuf, PreemptedTB{Index: int(tb.index), Restart: true})
	}
	s.resident = s.resident[:0]
	fw.PushPreempted(s.ksr, s.saveBuf)
	return n
}

// ResidentTBInfo is a mechanism's view of one resident thread block: only
// what the hardware could observe (no oracle knowledge of the remaining
// execution time).
type ResidentTBInfo struct {
	// Index is the thread-block index within its launch.
	Index int
	// Elapsed is how long the thread block has occupied the SM so far
	// (including context-restore traffic for restored thread blocks).
	Elapsed sim.Time
	// Restored marks a thread block re-issued from a saved context.
	Restored bool
}

// ResidentTBs snapshots the SM's resident thread blocks for a mechanism's
// cost model. The returned slice is a reused scratch buffer, valid until the
// next call.
func (fw *Framework) ResidentTBs(smID int) []ResidentTBInfo {
	s := fw.sms[smID]
	now := fw.eng.Now()
	s.sortResident()
	fw.tbScratch = fw.tbScratch[:0]
	for i := range s.resident {
		tb := &s.resident[i]
		fw.tbScratch = append(fw.tbScratch, ResidentTBInfo{
			Index:    int(tb.index),
			Elapsed:  now - tb.start,
			Restored: tb.restored,
		})
	}
	return fw.tbScratch
}

// PushPreempted appends preempted thread-block handles to the kernel's
// PTBQ. The framework issues PTBQ entries before fresh thread blocks, which
// bounds the queue to NumSMs x TBsPerSM entries (§3.3).
func (fw *Framework) PushPreempted(kid KernelID, tbs []PreemptedTB) {
	k := fw.Kernel(kid)
	if k == nil {
		panic(fmt.Sprintf("core: pushing preempted thread blocks of stale kernel %v", kid))
	}
	k.ptbq = append(k.ptbq, tbs...)
	limit := fw.cfg.NumSMs * k.TBsPerSM
	if len(k.ptbq) > limit {
		panic(fmt.Sprintf("core: PTBQ overflow for kernel %s: %d > %d", k.Spec().Name, len(k.ptbq), limit))
	}
	if len(k.ptbq) > fw.stats.MaxPTBQ {
		fw.stats.MaxPTBQ = len(k.ptbq)
	}
}

// SaveContext accounts for the context of the given thread blocks being
// written to the kernel's save area and returns the time the store traffic
// occupies the SM (at its share of memory bandwidth).
func (fw *Framework) SaveContext(smID int, kid KernelID, tbs []PreemptedTB) sim.Time {
	k := fw.Kernel(kid)
	if k == nil || len(tbs) == 0 {
		return 0
	}
	s := fw.sms[smID]
	bytes := k.ctxBytes * int64(len(tbs))
	for _, tb := range tbs {
		fw.touchSaveArea(s, k, tb.Index)
	}
	fw.stats.ContextSavedBytes += bytes
	return fw.cfg.ContextMoveTime(bytes)
}

// SMKernel returns the kernel whose thread blocks occupy the SM.
func (fw *Framework) SMKernel(smID int) KernelID { return fw.sms[smID].ksr }

// SMNext returns the kernel the SM is reserved for.
func (fw *Framework) SMNext(smID int) KernelID { return fw.sms[smID].next }

// MarkDraining records the SM's drain on the timeline (bookkeeping for the
// draining mechanism).
func (fw *Framework) MarkDraining(smID int) {
	s := fw.sms[smID]
	if k := fw.Kernel(s.ksr); k != nil {
		fw.timeline.transition(smID, fw.eng.Now(), IntervalDrain, k.Spec().Name, k.Cmd.Launch, k.Ctx().ID)
	}
}

// MarkSaving accounts the SM's context save and records it on the timeline
// (bookkeeping for the context-switch mechanism).
func (fw *Framework) MarkSaving(smID int, dur sim.Time) {
	s := fw.sms[smID]
	fw.stats.SaveTime += dur
	if k := fw.Kernel(s.ksr); k != nil {
		fw.timeline.transition(smID, fw.eng.Now(), IntervalSave, k.Spec().Name, k.Cmd.Launch, k.Ctx().ID)
	}
}

// PreemptionDone is called by the mechanism when the SM has no resident
// thread blocks left. The SM driver then sets the SM up for the kernel it
// was reserved for, or idles it if that kernel no longer needs it.
func (fw *Framework) PreemptionDone(smID int) {
	s := fw.sms[smID]
	if s.state != SMReserved {
		panic(fmt.Sprintf("core: preemption done on SM %d in state %v", smID, s.state))
	}
	if len(s.resident) != 0 {
		panic(fmt.Sprintf("core: preemption done on SM %d with %d resident thread blocks", smID, len(s.resident)))
	}
	if s.reservedAt >= 0 {
		fw.stats.PreemptLatency += fw.eng.Now() - s.reservedAt
		s.reservedAt = -1
	}
	fw.stats.PreemptionsDone++
	fw.policy.OnPreemptionDone(fw, smID)

	kid := s.next
	s.next = NoKernel
	next := fw.Kernel(kid)
	if next == nil || !next.HasWork() {
		if next != nil {
			next.Incoming--
			next.Held--
			fw.policy.OnSMDetached(fw, kid, s.id)
		}
		s.state = SMIdle
		s.ksr = NoKernel
		if s.busyFrom >= 0 {
			fw.stats.SMBusyTime += fw.eng.Now() - s.busyFrom
			s.busyFrom = -1
		}
		fw.timeline.closeOpen(s.id, fw.eng.Now())
		fw.policy.OnSMIdle(fw, s.id)
		return
	}
	s.state = SMRunning
	s.ksr = kid
	s.settingUp = true
	next.RunningSMs++
	fw.timeline.transition(s.id, fw.eng.Now(), IntervalSetup, next.Spec().Name, next.Cmd.Launch, next.Ctx().ID)
	setup := fw.cfg.SMSetupLatency
	fw.stats.SetupTime += setup
	fw.eng.AfterFunc(setup, setupDoneEvent, s, packKernelID(kid))
}

// Utilization returns the fraction of SM time spent busy from the epoch to
// now, counting in-flight busy periods.
func (fw *Framework) Utilization(now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	busy := fw.stats.SMBusyTime
	for _, s := range fw.sms {
		if s.state != SMIdle && s.busyFrom >= 0 {
			busy += now - s.busyFrom
		}
	}
	return float64(busy) / (float64(now) * float64(len(fw.sms)))
}

// TLBStats sums TLB statistics across SMs.
func (fw *Framework) TLBStats() (hits, misses, faults uint64) {
	for _, s := range fw.sms {
		hits += s.tlb.Hits
		misses += s.tlb.Misses
		faults += s.tlb.Faults
	}
	return
}
