package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

// keepPerName bounds the span records kept in memory per span name. The
// per-name aggregates always cover every span; only the written record set
// is sampled (the first keepPerName of each name).
const keepPerName = 20000

// span is one recorded call: name, interval, parent span and the op it
// served (-1 when the benchmark cannot attribute it to one op).
type span struct {
	id, parent int64
	name       string
	op         int
	start, end int64 // ns since the tracer started
}

// spanAgg totals every span of one name. Self time is the span's duration
// minus the part its direct children cover.
type spanAgg struct {
	calls       int64
	total, self int64 // ns
}

// frame is an open span on the tracer's stack.
type frame struct {
	id       int64
	name     int
	start    int64
	children int64 // ns covered by direct children
	keep     int   // index into spans, -1 when the record is not kept
}

// tracer records spans around the benchmark's calls into the simulator's
// layers and around the callbacks the simulator makes into the
// benchmark-owned wrappers below. It is single-goroutine: traced runs use one
// executor worker. A nil tracer records nothing.
type tracer struct {
	base    time.Time
	names   []string
	ids     map[string]int
	aggs    []spanAgg
	kept    []int // per name: records kept so far
	spans   []span
	stack   []frame
	next    int64
	op      int           // op id stamped on new spans
	engines []*sim.Engine // engines seen by traced policies since resetEngines
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), ids: map[string]int{}, op: -1}
}

// name interns a span name.
func (t *tracer) name(s string) int {
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := len(t.names)
	t.ids[s] = id
	t.names = append(t.names, s)
	t.aggs = append(t.aggs, spanAgg{})
	t.kept = append(t.kept, 0)
	return id
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) begin(name int) {
	t.next++
	f := frame{id: t.next, name: name, keep: -1}
	if t.kept[name] < keepPerName {
		t.kept[name]++
		f.keep = len(t.spans)
		var parent int64
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].id
		}
		t.spans = append(t.spans, span{id: f.id, parent: parent, name: t.names[name], op: t.op})
	}
	f.start = t.now()
	t.stack = append(t.stack, f)
}

func (t *tracer) end() {
	end := t.now()
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := end - f.start
	a := &t.aggs[f.name]
	a.calls++
	a.total += d
	a.self += d - f.children
	if n > 0 {
		t.stack[n-1].children += d
	}
	if f.keep >= 0 {
		t.spans[f.keep].start, t.spans[f.keep].end = f.start, end
	}
}

// do runs fn inside a span of the given name; a nil tracer just runs fn.
func (t *tracer) do(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	t.begin(t.name(name))
	err := fn()
	t.end()
	return err
}

// setOp stamps the op id on spans begun from now on (nil-safe).
func (t *tracer) setOp(op int) {
	if t != nil {
		t.op = op
	}
}

// agg returns the aggregate of one span name (zero when never recorded).
func (t *tracer) agg(name string) spanAgg {
	if id, ok := t.ids[name]; ok {
		return t.aggs[id]
	}
	return spanAgg{}
}

// layer sums the aggregates of every span name with the given prefix.
func (t *tracer) layer(prefix string) spanAgg {
	var s spanAgg
	for i, n := range t.names {
		if strings.HasPrefix(n, prefix) {
			s.calls += t.aggs[i].calls
			s.total += t.aggs[i].total
			s.self += t.aggs[i].self
		}
	}
	return s
}

// resetEngines forgets the engines seen so far; events sums the events the
// engines seen since then have processed.
func (t *tracer) resetEngines() { t.engines = t.engines[:0] }

func (t *tracer) events() uint64 {
	var n uint64
	for _, e := range t.engines {
		n += e.Processed()
	}
	return n
}

// write stores the kept span records as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"op":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			s.id, s.parent, s.name, s.op, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- cluster.Dispatcher ------------------------------------------------------

// tracedDispatcher spans the dispatcher callbacks. traceDispatcher wraps it
// together with every optional interface the inner dispatcher implements,
// because the cluster type-checks them to choose its executor path and to
// hand over working sets and warm state.
type tracedDispatcher struct {
	inner                       cluster.Dispatcher
	t                           *tracer
	pick, dispatched, completed int
}

func (d *tracedDispatcher) Name() string { return d.inner.Name() }

func (d *tracedDispatcher) Reset(nodes, classes, apps int) { d.inner.Reset(nodes, classes, apps) }

func (d *tracedDispatcher) Pick(at sim.Time, class, app int, nodes []*cluster.Node) int {
	d.t.begin(d.pick)
	p := d.inner.Pick(at, class, app, nodes)
	d.t.end()
	return p
}

func (d *tracedDispatcher) Dispatched(node, class, app int) {
	d.t.begin(d.dispatched)
	d.inner.Dispatched(node, class, app)
	d.t.end()
}

func (d *tracedDispatcher) Completed(node, class, app int, exec sim.Time) {
	d.t.begin(d.completed)
	d.inner.Completed(node, class, app, exec)
	d.t.end()
}

// traceDispatcher wraps d, forwarding each optional interface d implements
// and no other.
func traceDispatcher(d cluster.Dispatcher, t *tracer) cluster.Dispatcher {
	w := &tracedDispatcher{inner: d, t: t,
		pick: t.name("cluster.Pick"), dispatched: t.name("cluster.Dispatched"), completed: t.name("cluster.Completed")}
	la, isLA := d.(cluster.Lookahead)
	lo, isLO := d.(cluster.LoadOblivious)
	wa, isWA := d.(cluster.WorkingSetAware)
	ws, isWS := d.(cluster.WarmStater)
	type (
		LA = cluster.Lookahead
		LO = cluster.LoadOblivious
		WA = cluster.WorkingSetAware
		WS = cluster.WarmStater
		D  = *tracedDispatcher
	)
	switch mask(isLA, isLO, isWA, isWS) {
	case 0b0000:
		return w
	case 0b0001:
		return struct {
			D
			LA
		}{w, la}
	case 0b0010:
		return struct {
			D
			LO
		}{w, lo}
	case 0b0011:
		return struct {
			D
			LA
			LO
		}{w, la, lo}
	case 0b0100:
		return struct {
			D
			WA
		}{w, wa}
	case 0b0101:
		return struct {
			D
			LA
			WA
		}{w, la, wa}
	case 0b0110:
		return struct {
			D
			LO
			WA
		}{w, lo, wa}
	case 0b0111:
		return struct {
			D
			LA
			LO
			WA
		}{w, la, lo, wa}
	case 0b1000:
		return struct {
			D
			WS
		}{w, ws}
	case 0b1001:
		return struct {
			D
			LA
			WS
		}{w, la, ws}
	case 0b1010:
		return struct {
			D
			LO
			WS
		}{w, lo, ws}
	case 0b1011:
		return struct {
			D
			LA
			LO
			WS
		}{w, la, lo, ws}
	case 0b1100:
		return struct {
			D
			WA
			WS
		}{w, wa, ws}
	case 0b1101:
		return struct {
			D
			LA
			WA
			WS
		}{w, la, wa, ws}
	case 0b1110:
		return struct {
			D
			LO
			WA
			WS
		}{w, lo, wa, ws}
	default:
		return struct {
			D
			LA
			LO
			WA
			WS
		}{w, la, lo, wa, ws}
	}
}

func mask(bits ...bool) int {
	m := 0
	for i, b := range bits {
		if b {
			m |= 1 << i
		}
	}
	return m
}

// --- core.Policy -------------------------------------------------------------

// tracedPolicy spans every policy hook and registers the framework's engine
// with the tracer, so a traced run can count simulated events.
type tracedPolicy struct {
	inner core.Policy
	t     *tracer
	eng   *sim.Engine
	names [7]int
}

func tracePolicy(p core.Policy, t *tracer) core.Policy {
	w := &tracedPolicy{inner: p, t: t}
	for i, n := range []string{"PickPending", "OnActivated", "OnSMIdle", "OnPreemptionDone",
		"OnKernelFinished", "OnSMAttached", "OnSMDetached"} {
		w.names[i] = t.name("policy." + n)
	}
	return w
}

func (p *tracedPolicy) enter(fw *core.Framework, hook int) {
	if p.eng == nil {
		p.eng = fw.Engine()
		p.t.engines = append(p.t.engines, p.eng)
	}
	p.t.begin(p.names[hook])
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) PickPending(fw *core.Framework) int {
	p.enter(fw, 0)
	c := p.inner.PickPending(fw)
	p.t.end()
	return c
}

func (p *tracedPolicy) OnActivated(fw *core.Framework, k core.KernelID) {
	p.enter(fw, 1)
	p.inner.OnActivated(fw, k)
	p.t.end()
}

func (p *tracedPolicy) OnSMIdle(fw *core.Framework, smID int) {
	p.enter(fw, 2)
	p.inner.OnSMIdle(fw, smID)
	p.t.end()
}

func (p *tracedPolicy) OnPreemptionDone(fw *core.Framework, smID int) {
	p.enter(fw, 3)
	p.inner.OnPreemptionDone(fw, smID)
	p.t.end()
}

func (p *tracedPolicy) OnKernelFinished(fw *core.Framework, k core.KernelID) {
	p.enter(fw, 4)
	p.inner.OnKernelFinished(fw, k)
	p.t.end()
}

func (p *tracedPolicy) OnSMAttached(fw *core.Framework, k core.KernelID, smID int) {
	p.enter(fw, 5)
	p.inner.OnSMAttached(fw, k, smID)
	p.t.end()
}

func (p *tracedPolicy) OnSMDetached(fw *core.Framework, k core.KernelID, smID int) {
	p.enter(fw, 6)
	p.inner.OnSMDetached(fw, k, smID)
	p.t.end()
}

// --- core.Mechanism ----------------------------------------------------------

// tracedMechanism spans the mechanism hooks; traceMechanism adds the
// core.TBObserver forward when the inner mechanism observes thread blocks,
// because the framework type-checks it at construction.
type tracedMechanism struct {
	inner           core.Mechanism
	t               *tracer
	preempt, finish int
}

func (m *tracedMechanism) Name() string { return m.inner.Name() }

func (m *tracedMechanism) Preempt(fw *core.Framework, smID int) {
	m.t.begin(m.preempt)
	m.inner.Preempt(fw, smID)
	m.t.end()
}

func (m *tracedMechanism) OnTBFinished(fw *core.Framework, smID int) {
	m.t.begin(m.finish)
	m.inner.OnTBFinished(fw, smID)
	m.t.end()
}

type tracedObserver struct {
	*tracedMechanism
	obs     core.TBObserver
	observe int
}

func (m *tracedObserver) ObserveTBFinished(fw *core.Framework, k core.KernelID, smID int, elapsed sim.Time, restored bool) {
	m.t.begin(m.observe)
	m.obs.ObserveTBFinished(fw, k, smID, elapsed, restored)
	m.t.end()
}

func traceMechanism(mech core.Mechanism, t *tracer) core.Mechanism {
	w := &tracedMechanism{inner: mech, t: t,
		preempt: t.name("preempt.Preempt"), finish: t.name("preempt.OnTBFinished")}
	if obs, ok := mech.(core.TBObserver); ok {
		return &tracedObserver{tracedMechanism: w, obs: obs, observe: t.name("preempt.ObserveTBFinished")}
	}
	return w
}

// policyFactory and mechanismFactory wrap the simulator's per-machine
// factories when t is non-nil and return them unchanged otherwise.
func policyFactory(f func(int) core.Policy, t *tracer) func(int) core.Policy {
	if t == nil {
		return f
	}
	return func(n int) core.Policy { return tracePolicy(f(n), t) }
}

func mechanismFactory(f func() core.Mechanism, t *tracer) func() core.Mechanism {
	if t == nil {
		return f
	}
	return func() core.Mechanism { return traceMechanism(f(), t) }
}
