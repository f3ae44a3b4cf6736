package arrivals

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/preempt"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"
)

// maxEvents is the runaway guard: a run stops, keeping what ran, after this
// many events.
const maxEvents = 2e9

// RunConfig parameterizes an open-system simulation.
type RunConfig struct {
	// Sys is the machine configuration. When Sys.ContextCapacity is zero it
	// is sized to the arrival count so admission never fails (retired
	// contexts free their slots, but an overloaded sweep can hold every
	// request in flight at once).
	Sys system.Config
	// Policy builds the scheduling policy; it receives the number of
	// service classes (the open-system analogue of the process count the
	// closed-workload policies are sized with).
	Policy func(nClasses int) core.Policy
	// Mechanism builds the preemption mechanism (nil = none: reserving an
	// SM becomes a bug, as in closed workloads without a mechanism).
	Mechanism func() core.Mechanism
	// MaxSimTime aborts the simulation at this virtual time (0 = 120s).
	MaxSimTime sim.Time
	// AdmitDelay defers each arrival's admission this far past its arrival
	// time — the dispatch-path latency floor a cluster node pays between the
	// dispatch decision and the admission landing on its engine
	// (pcie.Config.DispatchFloor). Latency accounting still measures from
	// the arrival time. Zero (the default) admits at the arrival time; the
	// delay exists so differential tests can decompose a cluster run into
	// per-node single-machine runs bit-for-bit.
	AdmitDelay sim.Time
}

func (rc *RunConfig) defaults() {
	if rc.MaxSimTime <= 0 {
		rc.MaxSimTime = 120 * sim.Second
	}
	if rc.Mechanism == nil {
		rc.Mechanism = func() core.Mechanism { return preempt.None{} }
	}
}

// Result reports a completed open-system simulation.
type Result struct {
	// Classes holds the per-class streaming SLO accounting, in trace class
	// order.
	Classes []metrics.ClassSLO
	// Admitted counts requests admitted; Completed counts requests whose
	// run finished before the simulation ended; InFlight is the admitted
	// population still in the machine at the end (conservation:
	// Admitted == Completed + InFlight always holds); Missed counts
	// completed requests that blew their class deadline.
	Admitted, Completed, InFlight, Missed int
	// EndTime is the virtual time the simulation stopped.
	EndTime sim.Time
	// Utilization is the SM busy fraction over the simulation.
	Utilization float64
	// Goodput is SLO-compliant completions per simulated second.
	Goodput float64
	// Stats snapshots the execution-engine counters.
	Stats core.Stats
}

// engine drives one open-system simulation: it injects arrivals as virtual
// time reaches them, admits each request through the machine's Admitter, and
// accounts its completion.
type engine struct {
	sys      *system.System
	tr       *trace.ArrivalTrace
	acct     *metrics.SLOAccount
	adm      *Admitter
	delay    sim.Time // RunConfig.AdmitDelay
	admitted int
	finished int
	err      error
}

// ContextCapacityFor returns the context-table capacity open-system runs
// default to when none is configured: the stream's arrival count plus
// slack, so admission never fails even when an overloaded sweep holds every
// request in flight at once. The cluster layer sizes every node with it, so
// the guarantee holds for any placement.
func ContextCapacityFor(tr *trace.ArrivalTrace) int { return len(tr.Arrivals) + 8 }

// Run simulates the arrival trace on the configured machine and reports the
// streaming SLO metrics. The simulation stops when every admitted request
// has completed (or at MaxSimTime, leaving the remainder in flight).
func Run(tr *trace.ArrivalTrace, rc RunConfig) (*Result, error) {
	rc.defaults()
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if rc.Policy == nil {
		return nil, fmt.Errorf("arrivals: no policy factory")
	}
	if rc.AdmitDelay < 0 {
		return nil, fmt.Errorf("arrivals: negative AdmitDelay %v", rc.AdmitDelay)
	}
	sysCfg := rc.Sys
	if sysCfg.ContextCapacity <= 0 {
		sysCfg.ContextCapacity = ContextCapacityFor(tr)
	}
	sys, err := system.New(sysCfg, rc.Policy(len(tr.Classes)), rc.Mechanism())
	if err != nil {
		return nil, err
	}
	e := &engine{sys: sys, tr: tr, acct: metrics.NewSLOAccount(tr.Classes), delay: rc.AdmitDelay}
	e.adm = NewAdmitter(sys, tr, new(proc.PhaseTables).Build(tr.Apps), e.requestDone)
	return e.run(rc)
}

// run simulates the stream on the engine's machine from its current state
// (a fresh or freshly reset one) and reports the result.
func (e *engine) run(rc RunConfig) (*Result, error) {
	sys, tr := e.sys, e.tr
	sys.Eng.SetMaxEvents(maxEvents)
	// Arrivals chain-schedule: each injection schedules the next, so the
	// event heap holds one pending arrival at a time.
	sys.Eng.AtFunc(tr.Arrivals[0].At+e.delay, injectEvent, e, 0)
	sys.Eng.AtFunc(rc.MaxSimTime, stopEvent, sys.Eng, 0)

	if err := sys.Eng.Run(); err != nil && !errors.Is(err, sim.ErrEventLimit) {
		return nil, fmt.Errorf("arrivals: %w", err)
	}
	if e.err != nil {
		return nil, e.err
	}

	res := &Result{
		Classes:     e.acct.Classes,
		EndTime:     sys.Eng.Now(),
		Utilization: sys.Exec.Utilization(sys.Eng.Now()),
		Goodput:     e.acct.Goodput(sys.Eng.Now()),
		Stats:       sys.Exec.Stats(),
	}
	adm, done, missed := e.acct.Totals()
	if adm != e.admitted || done != e.finished {
		panic(fmt.Sprintf("arrivals: accounting drift: %d/%d admitted, %d/%d completed",
			adm, e.admitted, done, e.finished))
	}
	res.Admitted, res.Completed, res.Missed = adm, done, missed
	res.InFlight = adm - done
	return res, nil
}

// Admitter is one machine's open-system admission desk. Each admitted
// request replays its application once in a fresh GPU context and process.
// When the run completes, the context retires (a completed run has no
// pending commands or active kernels, so a retire failure is an engine
// invariant violation and panics) and onRun receives the request's id and
// raw completion record. Only after onRun has returned do the request's
// context struct (with its page table), process and admission record go back
// to free lists on the desk for later admissions. The lists start empty and
// grow to the machine's peak concurrency. A completion may synchronously
// admit another request (an HBM-queued one, say): that admission never
// receives an object of the request still completing.
//
// The single-node engine admits at injection time; internal/cluster keeps
// one desk per node and admits wherever the dispatcher placed the request.
// When the cluster kills a node it resets the machine in place and then the
// desk (Reset), so the next incarnation starts with every record the last
// one grew. The caller accounts the admission itself (acct.Admit plus its
// own counters).
//
// A request replays its app with the app's phase table (proc.PhaseTable),
// which the desk receives with the stream: tables are built once per trace
// app, and every desk of one stream may share them.
type Admitter struct {
	sys   *system.System
	tr    *trace.ArrivalTrace
	tabs  []proc.PhaseTable // by trace app index
	onRun func(id int, rec proc.RunRecord)
	free  []*admission
	last  *admission // the newest record the desk created; see admission.prev
}

// admission is one admitted request's record. Its process and completion
// continuation are allocated once and survive recycling.
type admission struct {
	ad    *Admitter
	i, id int // arrival index, caller's id
	p     *proc.Process
	prev  *admission // the record created before this one: Reset's list
}

// NewAdmitter returns the admission desk of machine sys for the requests of
// tr, replaying each app with its table in tabs, which holds tr.Apps'
// tables in order (proc.PhaseTables.Build); onRun is called with each
// completed request's id and run record.
func NewAdmitter(sys *system.System, tr *trace.ArrivalTrace, tabs []proc.PhaseTable, onRun func(id int, rec proc.RunRecord)) *Admitter {
	if len(tabs) != len(tr.Apps) {
		panic(fmt.Sprintf("arrivals: %d phase tables for %d apps", len(tabs), len(tr.Apps)))
	}
	ad := &Admitter{sys: sys, tr: tr, tabs: tabs, onRun: onRun}
	ad.Reset()
	return ad
}

// Reset readies the desk for its freshly reset machine
// (system.System.Reset): every admission record it created goes back to the
// free list, so it admits as a new desk would while reusing them. Requests
// that were in flight are abandoned without completing (onRun is not
// called) and their processes aborted; their contexts went back to the
// machine's context table with its reset.
func (ad *Admitter) Reset() {
	ad.free = ad.free[:0]
	for rq := ad.last; rq != nil; rq = rq.prev {
		if rq.p != nil {
			rq.p.Abort()
		}
		ad.free = append(ad.free, rq)
	}
}

// Admit places arrival i on the machine at the engine's current time; id is
// the value onRun receives at completion. A refused admission (context table
// full, invalid application) leaves the machine untouched, so the caller may
// retry elsewhere.
func (ad *Admitter) Admit(i, id int) error {
	a := &ad.tr.Arrivals[i]
	cls := &ad.tr.Classes[a.Class]
	ctx, err := ad.sys.NewContext(cls.Name, cls.Priority)
	if err != nil {
		return err
	}
	var rq *admission
	if n := len(ad.free); n > 0 {
		rq, ad.free = ad.free[n-1], ad.free[:n-1]
	} else {
		rq = &admission{ad: ad, prev: ad.last}
		ad.last = rq
	}
	tab := &ad.tabs[a.App]
	if rq.p == nil {
		if rq.p, err = proc.NewWithTable(ad.sys, ctx, tab); err == nil {
			rq.p.OnRunComplete = rq.runComplete
		}
	} else {
		err = rq.p.Reuse(ctx, tab)
	}
	if err != nil {
		_ = ad.sys.Retire(ctx)
		ad.sys.Contexts.Recycle(ctx)
		ad.free = append(ad.free, rq)
		return err
	}
	rq.i, rq.id = i, id
	return rq.p.Start(ad.sys.Eng.Now())
}

// runComplete is the process's completion continuation: retire the context,
// report, and only then recycle.
func (rq *admission) runComplete(p *proc.Process, rec proc.RunRecord) {
	ad := rq.ad
	ctx := p.Ctx()
	if err := ad.sys.Retire(ctx); err != nil {
		panic(fmt.Sprintf("arrivals: retiring request %d: %v", rq.i, err))
	}
	ad.onRun(rq.id, rec)
	ad.sys.Contexts.Recycle(ctx)
	ad.free = append(ad.free, rq)
}

// Account records a completed request's queueing and completion latency in
// acct and returns its execution time: first issue to completion, or arrival
// to completion for a run that never issued.
func Account(acct *metrics.SLOAccount, a *trace.Arrival, rec proc.RunRecord) sim.Time {
	exec := rec.End - a.At
	if rec.FirstIssue >= 0 {
		acct.Issued(a.Class, rec.FirstIssue-a.At)
		exec = rec.End - rec.FirstIssue
	}
	acct.Complete(a.Class, rec.End-a.At)
	return exec
}

// stopEvent is the MaxSimTime watchdog: it stops engine p.
func stopEvent(p any, _ int64) { p.(*sim.Engine).Stop() }

// injectEvent is the engine callback that admits arrival x and
// chain-schedules the next injection.
func injectEvent(p any, x int64) {
	e := p.(*engine)
	i := int(x)
	e.acct.Admit(e.tr.Arrivals[i].Class)
	e.admitted++
	if err := e.adm.Admit(i, i); err != nil {
		e.fail(fmt.Errorf("arrivals: admitting request %d: %w", i, err))
		return
	}
	if next := i + 1; next < len(e.tr.Arrivals) {
		e.sys.Eng.AtFunc(e.tr.Arrivals[next].At+e.delay, injectEvent, e, int64(next))
	}
}

// requestDone accounts request i's completion.
func (e *engine) requestDone(i int, rec proc.RunRecord) {
	Account(e.acct, &e.tr.Arrivals[i], rec)
	e.finished++
	e.maybeDone()
}

// maybeDone stops the engine once the stream is exhausted and every admitted
// request has completed, so EndTime reflects the last completion rather than
// the watchdog horizon.
func (e *engine) maybeDone() {
	if e.admitted == len(e.tr.Arrivals) && e.finished == e.admitted {
		e.sys.Eng.Stop()
	}
}

func (e *engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
	e.sys.Eng.Stop()
}
