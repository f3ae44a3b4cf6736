// Package proc models the CPU side of a GPU application: a process that
// replays its application trace, issuing commands into software work queues
// (CUDA streams) that the command dispatcher drains into the GPU engines.
//
// Stream semantics follow §2.1/§2.2: commands in the same stream execute in
// order (one outstanding command per hardware queue — the dispatcher stops
// inspecting a queue after issuing from it until the engine notifies
// completion), commands in different streams may overlap, and the CPU
// enqueues asynchronously, blocking only at synchronization points.
//
// The host side is modelled as coarse CPU phases between GPU commands
// (§4.1): a CPU phase is a maximal run of adjacent trace CPU ops, replayed
// as one cpu.Model phase of their summed duration. The trace keeps every
// op; only the replay folds them, and it folds each run once per app, not
// once per replay. An app's PhaseTable lists its replay steps in trace
// order: each maximal CPU run with its summed duration, each command with
// its stream slot, each synchronization point. The replay loop walks the
// table and never reads a CPU op. NewWithContext builds a table for its
// process alone; NewWithTable and Reuse replay a table that PhaseTables
// built once per app and that every process replaying the app shares. The
// open-system admission desk receives one table per trace app; a closed
// workload's pooled machine rebuilds the tables of each workload's apps into
// arrays it keeps.
//
// A finished process can be recycled for another run in a fresh context
// (Reuse). Open-system admission does this for every request, so a
// machine's processes, their streams, stream queues, per-stream command
// records, run records and continuations are allocated once per concurrent
// request rather than once per request.
package proc

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"
)

// IssueOverhead is the CPU-side cost of enqueueing one command (the paper
// notes command-issue latency to the GPU is significant, citing [17]).
const IssueOverhead = 2 * sim.Microsecond

// RunRecord describes one completed run of an application.
type RunRecord struct {
	Run        int
	Start, End sim.Time
	// FirstIssue is when the run's first kernel thread block reached an SM
	// (-1 if the run completed without issuing one, which cannot happen for
	// valid traces: every app launches at least one kernel).
	FirstIssue sim.Time
}

// Turnaround returns the run's turnaround time.
func (r RunRecord) Turnaround() sim.Time { return r.End - r.Start }

// Process replays an application trace on a machine. When Loop is set the
// process restarts its application upon completion, as in the paper's
// replay methodology (§4.1).
type Process struct {
	sys  *system.System
	ctx  *gpu.Context
	app  *trace.App
	plan []phase // app's phase table

	// Loop restarts the app as soon as a run completes.
	Loop bool
	// OnRunComplete, when set, is invoked after each completed run.
	OnRunComplete func(p *Process, rec RunRecord)

	streams     []*stream // by the phase table's stream slot, created on first use
	pc          int       // index in plan of the next phase to replay
	outstanding int
	waitingSync bool
	inCPUPhase  bool
	runStart    sim.Time
	firstIssue  sim.Time // first TB issue of the current run; -1 until seen
	runs        []RunRecord
	started     bool

	// Continuations allocated once per process: the replay loop schedules
	// them thousands of times, so per-event closures would dominate the
	// allocation profile.
	phaseDone     func()            // end of a CPU phase or issue micro-phase: continue
	kernelStarted func(at sim.Time) // a kernel's first thread block reached an SM
}

// phase is one step of an app's replay: a maximal run of adjacent CPU ops
// folded into one CPU phase (kind OpCPU), a command, or a synchronization
// point.
type phase struct {
	dur    sim.Time // CPU run: summed duration of its ops
	op     int32    // index in the app's ops of the command, sync, or first op of the run
	stream uint16   // command: stream slot
	kind   uint8    // the trace.OpKind of the op(s)
}

// PhaseTable is an application's replay plan: its phases in trace order,
// computed in one pass over the trace. It depends only on the app's ops, so
// one table serves every process replaying the app (NewWithTable, Reuse);
// the app must not change while a table of it is in use.
type PhaseTable struct {
	app    *trace.App
	phases []phase
}

// PhaseTables builds the phase tables of a set of apps into arrays it keeps,
// so a later Build for another set reuses them. The zero value is ready.
type PhaseTables struct {
	tabs []PhaseTable
	buf  []phase
}

// Build folds the CPU runs of each app once and returns the apps' tables in
// order. The tables stay valid until the next Build. Like Reuse it does not
// validate the apps.
func (ts *PhaseTables) Build(apps []*trace.App) []PhaseTable {
	n := 0
	for _, app := range apps {
		n += countPhases(app.Ops)
	}
	clear(ts.tabs)
	ts.tabs = slices.Grow(ts.tabs[:0], len(apps))
	ts.buf = slices.Grow(ts.buf[:0], n)
	for _, app := range apps {
		start := len(ts.buf)
		ts.buf = appendPhases(ts.buf, app.Ops)
		ts.tabs = append(ts.tabs, PhaseTable{app: app, phases: slices.Clip(ts.buf[start:])})
	}
	return ts.tabs
}

// countPhases returns the number of phases of ops: one per op, except
// that a run of adjacent CPU ops is one.
func countPhases(ops []trace.Op) int {
	n := 0
	for i := range ops {
		if i == 0 || ops[i].Kind != trace.OpCPU || ops[i-1].Kind != trace.OpCPU {
			n++
		}
	}
	return n
}

// appendPhases appends the phases of ops to dst, growing it at most once.
func appendPhases(dst []phase, ops []trace.Op) []phase {
	dst = slices.Grow(dst, countPhases(ops))
	// ids holds each slot's stream id; apps use a handful of streams.
	var buf [4]int
	ids := buf[:0]
	for i := range ops {
		op := &ops[i]
		if op.Kind < 0 || op.Kind > math.MaxUint8 { // would not fit phase.kind
			panic(fmt.Sprintf("proc: unknown op kind %v", op.Kind))
		}
		ph := phase{kind: uint8(op.Kind), op: int32(i)}
		switch op.Kind {
		case trace.OpCPU:
			if i > 0 && ops[i-1].Kind == trace.OpCPU { // the run goes on
				dst[len(dst)-1].dur += op.Dur
				continue
			}
			ph.dur = op.Dur
		case trace.OpH2D, trace.OpD2H, trace.OpLaunch:
			s := slices.Index(ids, op.Stream)
			if s < 0 {
				if len(ids) > math.MaxUint16 {
					panic(fmt.Sprintf("proc: trace uses more than %d streams", math.MaxUint16+1))
				}
				s = len(ids)
				ids = append(ids, op.Stream)
			}
			ph.stream = uint16(s)
		}
		dst = append(dst, ph)
	}
	return dst
}

type stream struct {
	p      *Process
	queue  []int32 // op indices of the stream's queued commands
	head   int     // index of the stream's oldest queued command
	busy   bool
	onDone func(at sim.Time) // the stream's completion continuation, allocated once

	// The stream's command records. A stream has at most one outstanding
	// command, and neither engine reads a command once it has called its
	// OnDone, so one record of each kind serves every command the stream
	// issues.
	launch core.LaunchCmd
	xfer   pcie.Command
}

// newProcess wires up a process and its reusable continuations; the caller
// installs the app and its phase table.
func newProcess(sys *system.System, ctx *gpu.Context) *Process {
	p := &Process{sys: sys, ctx: ctx}
	p.phaseDone = func() {
		p.inCPUPhase = false
		p.step()
	}
	p.kernelStarted = func(at sim.Time) {
		if p.firstIssue < 0 {
			p.firstIssue = at
		}
	}
	p.firstIssue = -1
	return p
}

// NewWithContext creates a process that runs inside an existing GPU context.
// This models NVIDIA MPS (§2.1): a proxy process executes requests from all
// client processes in a single context, so their kernels can share the
// execution engine like kernels of one process — at the cost of losing
// memory isolation between clients and any per-process scheduling policy
// across them. Each client keeps its own streams (MPS clients' streams map
// to distinct hardware queues).
func NewWithContext(sys *system.System, ctx *gpu.Context, app *trace.App) (*Process, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		return nil, fmt.Errorf("proc: nil context")
	}
	p := newProcess(sys, ctx)
	p.app, p.plan = app, appendPhases(nil, app.Ops)
	return p, nil
}

// NewWithTable is NewWithContext replaying t's app with t itself as the
// phase table. Like Reuse, it does not validate the app: the caller passes a
// table of an already validated trace.
func NewWithTable(sys *system.System, ctx *gpu.Context, t *PhaseTable) (*Process, error) {
	if ctx == nil {
		return nil, fmt.Errorf("proc: nil context")
	}
	p := newProcess(sys, ctx)
	p.app, p.plan = t.app, t.phases
	return p, nil
}

// Reuse readies a finished process for one more run, of t's app with t as
// the phase table, inside ctx, as if it were fresh from NewWithTable: the
// run records and the started flag reset, and the streams, queues and
// continuations are kept. Loop and OnRunComplete are the caller's and stay
// as set. Only a process with nothing in flight can be reused: one that
// never started, or whose run completed without looping. Unlike
// NewWithContext, Reuse does not validate the app: the caller must pass a
// table of an already validated trace (the open-system admission path
// replays apps of an ArrivalTrace, whose Validate checked every app once
// when the run was set up).
func (p *Process) Reuse(ctx *gpu.Context, t *PhaseTable) error {
	if ctx == nil {
		return fmt.Errorf("proc: nil context")
	}
	if p.Loop || p.outstanding > 0 || p.inCPUPhase || p.waitingSync || (p.started && len(p.runs) == 0) {
		return fmt.Errorf("proc: reusing process %s with a run in flight", p.app.Name)
	}
	p.ctx, p.app, p.plan = ctx, t.app, t.phases
	p.pc = 0
	p.runStart = 0
	p.firstIssue = -1
	p.runs = p.runs[:0]
	p.started = false
	return nil
}

// Abort drops the process's run in flight after its machine was reset (see
// system.System.Reset): the machine's events, queued commands and CPU
// phases are gone, so the process forgets its outstanding commands, stream
// queues, phase and run records and becomes reusable (Reuse) as if it had
// never started. Its streams and continuations are kept. Aborting a process
// whose machine still holds its events is a caller bug: they would fire
// into the next run.
func (p *Process) Abort() {
	for _, st := range p.streams {
		if st == nil {
			continue
		}
		st.queue, st.head, st.busy = st.queue[:0], 0, false
		st.launch, st.xfer = core.LaunchCmd{}, pcie.Command{}
	}
	p.pc = 0
	p.outstanding = 0
	p.waitingSync = false
	p.inCPUPhase = false
	p.runStart = 0
	p.firstIssue = -1
	p.runs = p.runs[:0]
	p.started = false
}

// Ctx returns the process's GPU context.
func (p *Process) Ctx() *gpu.Context { return p.ctx }

// App returns the application trace.
func (p *Process) App() *trace.App { return p.app }

// Runs returns the completed run records.
func (p *Process) Runs() []RunRecord { return p.runs }

// CompletedRuns returns the number of completed runs.
func (p *Process) CompletedRuns() int { return len(p.runs) }

// MeanTurnaround returns the average turnaround over completed runs.
func (p *Process) MeanTurnaround() sim.Time {
	if len(p.runs) == 0 {
		return 0
	}
	var total sim.Time
	for _, r := range p.runs {
		total += r.Turnaround()
	}
	return total / sim.Time(len(p.runs))
}

// Start schedules the process to begin at the given virtual time.
func (p *Process) Start(at sim.Time) error {
	if p.started {
		return fmt.Errorf("proc: process %s already started", p.app.Name)
	}
	p.started = true
	p.sys.Eng.AtFunc(at, beginRun, p, 0)
	return nil
}

// beginRun starts a (re)run of process p: it stamps runStart and steps.
func beginRun(p any, _ int64) {
	pr := p.(*Process)
	pr.runStart = pr.sys.Eng.Now()
	pr.firstIssue = -1
	pr.step()
}

// step advances through the phase table until it blocks on a CPU phase, a
// synchronization point, or the end of the run.
func (p *Process) step() {
	for p.pc < len(p.plan) {
		ph := &p.plan[p.pc]
		switch kind := trace.OpKind(ph.kind); kind {
		case trace.OpCPU:
			if p.inCPUPhase {
				panic("proc: re-entered CPU phase")
			}
			// The whole run of adjacent CPU ops is one phase: one Exec for
			// the summed duration.
			p.pc++
			p.inCPUPhase = true
			p.sys.CPU.Exec(ph.dur, p.phaseDone)
			return
		case trace.OpSync:
			if p.outstanding > 0 {
				p.waitingSync = true
				return
			}
			p.pc++
		case trace.OpH2D, trace.OpD2H, trace.OpLaunch:
			p.enqueue(ph)
			p.pc++
			// The enqueue costs CPU time; batch it into the next iteration
			// by falling through — modelling it as zero-width keeps the
			// trace's CPU phases authoritative, except that we charge
			// IssueOverhead once per command via a CPU micro-phase.
			if IssueOverhead > 0 {
				p.inCPUPhase = true
				p.sys.CPU.Exec(IssueOverhead, p.phaseDone)
				return
			}
		default:
			panic(fmt.Sprintf("proc: unknown op kind %v", kind))
		}
	}
	// End of trace: implicit final synchronization.
	if p.outstanding > 0 {
		p.waitingSync = true
		return
	}
	p.finishRun()
}

func (p *Process) finishRun() {
	rec := RunRecord{Run: len(p.runs), Start: p.runStart, End: p.sys.Eng.Now(), FirstIssue: p.firstIssue}
	p.runs = append(p.runs, rec)
	if p.OnRunComplete != nil {
		p.OnRunComplete(p, rec)
	}
	if !p.Loop {
		return
	}
	p.pc = 0
	p.sys.Eng.AfterFunc(0, beginRun, p, 0)
}

// enqueue places the command of phase ph in its stream; if the stream has
// no outstanding command, the dispatcher issues it to the matching engine
// immediately.
func (p *Process) enqueue(ph *phase) {
	s := int(ph.stream)
	for len(p.streams) <= s {
		p.streams = append(p.streams, nil)
	}
	st := p.streams[s]
	if st == nil {
		st = &stream{p: p}
		st.onDone = st.complete
		p.streams[s] = st
	}
	p.outstanding++
	st.queue = append(st.queue, ph.op)
	p.dispatch(st)
}

// complete is the stream's command-completion continuation (allocated once
// per stream as st.onDone, not once per command).
func (st *stream) complete(at sim.Time) {
	p := st.p
	st.head++
	if st.head == len(st.queue) {
		st.queue = st.queue[:0]
		st.head = 0
	}
	st.busy = false
	p.outstanding--
	p.dispatch(st)
	p.commandCompleted()
}

// dispatch issues the stream's head command if the stream is not already
// waiting on one (the dispatcher stops inspecting a queue after issuing).
func (p *Process) dispatch(st *stream) {
	if st.busy || st.head == len(st.queue) {
		return
	}
	st.busy = true
	op := &p.app.Ops[st.queue[st.head]]
	onDone := st.onDone
	switch op.Kind {
	case trace.OpLaunch:
		spec := &p.app.Kernels[op.Kernel]
		st.launch = core.LaunchCmd{
			Ctx:     p.ctx,
			Spec:    spec,
			OnStart: p.kernelStarted,
			OnDone:  onDone,
		}
		err := p.sys.Exec.Submit(&st.launch)
		if err != nil {
			panic(fmt.Sprintf("proc: submitting kernel %s: %v", spec.Name, err))
		}
	case trace.OpH2D, trace.OpD2H:
		dir := pcie.HostToDevice
		if op.Kind == trace.OpD2H {
			dir = pcie.DeviceToHost
		}
		st.xfer = pcie.Command{
			CtxID:    p.ctx.ID,
			Name:     p.app.Name,
			Dir:      dir,
			Bytes:    op.Bytes,
			Priority: p.ctx.Priority,
			OnDone:   onDone,
		}
		err := p.sys.DMA.Submit(&st.xfer)
		if err != nil {
			panic(fmt.Sprintf("proc: submitting transfer: %v", err))
		}
	default:
		panic(fmt.Sprintf("proc: dispatching non-command op %v", op.Kind))
	}
}

// commandCompleted resumes the CPU if it was blocked on a synchronization
// point and all commands have drained.
func (p *Process) commandCompleted() {
	if !p.waitingSync || p.outstanding > 0 {
		return
	}
	p.waitingSync = false
	if p.pc < len(p.plan) && trace.OpKind(p.plan[p.pc].kind) == trace.OpSync {
		p.pc++
	}
	if p.pc >= len(p.plan) {
		p.finishRun()
		return
	}
	p.step()
}
