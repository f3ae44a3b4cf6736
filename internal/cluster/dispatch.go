package cluster

import (
	"fmt"

	"repro/internal/predict"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Kind names a built-in dispatch policy.
type Kind string

// Built-in dispatch policies.
const (
	// KindRoundRobin cycles through the nodes in index order, ignoring
	// load — the baseline every smarter policy is measured against.
	KindRoundRobin Kind = "round-robin"
	// KindJSQ joins the shortest queue: the node with the fewest
	// outstanding requests, ties to the lowest index.
	KindJSQ Kind = "jsq"
	// KindLeastLoaded minimizes predicted backlog: each node's outstanding
	// requests are weighted by an online per-application service-time
	// estimate (EWMA over observed execution times), so one long batch
	// request counts for more than several short probes.
	KindLeastLoaded Kind = "least-loaded"
	// KindClassAffinity pins each service class to a node subset (indices
	// congruent to the class modulo min(classes, nodes)) and joins the
	// shortest queue within the subset — cache/working-set affinity at the
	// cost of cross-subset imbalance.
	KindClassAffinity Kind = "class-affinity"
	// KindPowerOfTwo samples two nodes with a seeded deterministic RNG and
	// joins the shorter queue of the two (Mitzenmacher's power of two
	// choices) — near-JSQ balance from O(1) state probes.
	KindPowerOfTwo Kind = "p2c"
	// KindLeastLoadedFits is least-loaded made memory-aware: least predicted
	// backlog among the nodes with enough free HBM for the request's working
	// set; when nothing fits, least projected oversubscription (the node
	// that accrues the smallest swap debt).
	KindLeastLoadedFits Kind = "least-loaded-fits"
)

// Kinds lists the built-in dispatch policies in report order.
func Kinds() []Kind {
	return []Kind{KindRoundRobin, KindJSQ, KindLeastLoaded, KindLeastLoadedFits, KindClassAffinity, KindPowerOfTwo}
}

// Dispatcher places arrivals on nodes. Implementations must be
// deterministic: Pick may depend only on the dispatcher's own state, its
// seed, and the node views passed in, never on wall-clock time or map
// iteration order. A Dispatcher is stateful and single-goroutine; build one
// per cluster run.
type Dispatcher interface {
	// Name labels the policy in results and tables.
	Name() string
	// Reset reinitializes internal state for a cluster of the given starting
	// shape. The cluster calls it once before the first arrival; an elastic
	// fleet may grow or shrink afterwards without another Reset.
	Reset(nodes, classes, apps int)
	// Pick returns a POSITION in the nodes slice for a request of the given
	// class and application arriving at the given time. The slice holds the
	// currently eligible (Up) nodes in fleet-index order — on an elastic
	// fleet it is a subset of the fleet and its length varies between calls.
	// Nodes reflect every event strictly before at, plus all same-timestamp
	// arrivals already placed. An empty slice returns -1 (never a panic):
	// drains, kills and circuit breakers can mask the whole fleet, and the
	// caller owns the fail-or-queue decision.
	Pick(at sim.Time, class, app int, nodes []*Node) int
	// Dispatched observes a placement (including this dispatcher's own) by
	// fleet node index, for policies that track load themselves.
	Dispatched(node, class, app int)
	// Completed observes a request finishing on a node (by fleet index) with
	// the given observed execution time (first issue to completion).
	Completed(node, class, app int, exec sim.Time)
}

// WorkingSetAware is implemented by memory-aware dispatchers: the cluster
// hands them the per-application working sets (trace.App.WorkingSetBytes,
// indexed by app) after Reset, so Pick can weigh a request's memory demand
// against each node's FreeHBM.
type WorkingSetAware interface {
	SetWorkingSets(ws []int64)
}

// Lookahead is the opt-in latency-floor contract for load-aware dispatchers:
// an implementation promises that its Pick (and hooks) read, beyond the
// dispatcher's own internal state, only node state the parallel executor's
// window merge reconstructs exactly — Node.InFlight, the per-application
// in-flight counts, Node.FreeHBM and the memory-demand counters, and the
// Completed feedback stream. Each implementation lists its reads in its doc
// comment. With a positive dispatch floor, the parallel executor may then run
// node engines past an arrival up to that floor and replay those inputs in
// lockstep order before running Pick (see parallel.go). A LoadOblivious
// dispatcher takes the same windows. A dispatcher that is neither runs
// lockstep whatever RunConfig.Parallel asks. Reading anything else
// (wall-clock node internals, engine peeks) breaks byte-identity with
// lockstep.
type Lookahead interface {
	// LookaheadDispatch is a marker; implementations do nothing.
	LookaheadDispatch()
}

// NewDispatcher builds a built-in dispatch policy. The seed drives any
// randomness the policy uses (only p2c today); deterministic policies ignore
// it.
func NewDispatcher(kind Kind, seed uint64) (Dispatcher, error) {
	switch kind {
	case KindRoundRobin, "":
		return NewRoundRobin(), nil
	case KindJSQ:
		return NewJSQ(), nil
	case KindLeastLoaded:
		return NewLeastLoaded(), nil
	case KindLeastLoadedFits:
		return NewLeastLoadedFits(), nil
	case KindClassAffinity:
		return NewClassAffinity(), nil
	case KindPowerOfTwo:
		return NewPowerOfTwo(seed), nil
	default:
		return nil, fmt.Errorf("cluster: unknown dispatch policy %q", kind)
	}
}

// noopHooks is embedded by policies that do not track load themselves.
type noopHooks struct{}

func (noopHooks) Dispatched(node, class, app int)            {}
func (noopHooks) Completed(node, class, app int, t sim.Time) {}

// shortestQueue returns the index of the minimum-InFlight node (ties to the
// lowest index).
func shortestQueue(nodes []*Node) int {
	best, bestLoad := -1, 0
	for i, n := range nodes {
		if l := n.InFlight(); best < 0 || l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}

// --- round-robin -----------------------------------------------------------

type roundRobin struct {
	noopHooks
	// next is the fleet INDEX the cycle continues from, not a position in
	// the eligible slice. A position cursor taken modulo the eligible-set
	// length aliases whenever drains, kills or breakers shrink the set (the
	// monotone counter lands on an unrelated node) and divides by zero when
	// the set is empty; anchoring the cursor to fleet indices keeps "the
	// next node after the one I used last" exact on any subset. On a full
	// fixed fleet index equals position and the cycle is unchanged.
	next int
}

// NewRoundRobin returns the cycling baseline dispatcher.
func NewRoundRobin() Dispatcher { return &roundRobin{} }

func (d *roundRobin) Name() string                   { return string(KindRoundRobin) }
func (d *roundRobin) Reset(nodes, classes, apps int) { d.next = 0 }

func (d *roundRobin) Pick(at sim.Time, class, app int, nodes []*Node) int {
	if len(nodes) == 0 {
		return -1
	}
	// First eligible node at or after the cursor, wrapping to the lowest
	// index. The slice is in fleet-index order, so the first match is the
	// nearest successor.
	pick := 0
	for p, n := range nodes {
		if n.Index >= d.next {
			pick = p
			break
		}
	}
	d.next = nodes[pick].Index + 1
	return pick
}

// LoadObliviousDispatch marks round-robin load-oblivious: Pick reads only
// the cursor and the eligible-set length, never node load or completion
// feedback, so the micro-merge has no node state to rebuild before
// replaying it.
func (d *roundRobin) LoadObliviousDispatch() {}

// WarmState and WarmStart carry round-robin's only state, the cursor, across
// runs — mostly so warm-started sweeps behave uniformly across policies.
func (d *roundRobin) WarmState() any { return d.next }

func (d *roundRobin) WarmStart(state any) {
	if v, ok := state.(int); ok {
		d.next = v
	}
}

// --- join-shortest-queue ---------------------------------------------------

type jsq struct{ noopHooks }

// NewJSQ returns the join-shortest-queue dispatcher.
func NewJSQ() Dispatcher { return jsq{} }

func (jsq) Name() string                   { return string(KindJSQ) }
func (jsq) Reset(nodes, classes, apps int) {}

func (jsq) Pick(at sim.Time, class, app int, nodes []*Node) int {
	return shortestQueue(nodes)
}

// LookaheadDispatch opts jsq into lookahead windows: its only input is
// Node.InFlight.
func (jsq) LookaheadDispatch() {}

// --- least-loaded (predicted backlog) --------------------------------------

// leastLoadedAlpha is the service-time EWMA smoothing factor: new samples
// carry a quarter of the weight, matching the adaptive preemption
// mechanism's estimator regime.
const leastLoadedAlpha = 0.25

// estAllApps is the estimator's catch-all key: a fleet-wide EWMA over every
// completion, used as the prior for applications never seen before.
const estAllApps = -1

type leastLoaded struct {
	est *predict.EWMA[int]
	// weights is Pick's per-arrival scratch of per-app backlog weights;
	// they depend only on the app, so they are computed once per Pick
	// instead of once per (node, app).
	weights []float64
}

// NewLeastLoaded returns the predicted-backlog dispatcher. Until the first
// completion is observed every request weighs the same, so it starts out as
// join-shortest-queue and sharpens as estimates arrive.
func NewLeastLoaded() Dispatcher { return &leastLoaded{} }

func (d *leastLoaded) Name() string { return string(KindLeastLoaded) }

func (d *leastLoaded) Reset(nodes, classes, apps int) {
	d.est = predict.NewEWMA[int](leastLoadedAlpha)
	d.weights = make([]float64, apps)
}

func (d *leastLoaded) Dispatched(node, class, app int) {}

func (d *leastLoaded) Completed(node, class, app int, exec sim.Time) {
	d.est.Observe(app, float64(exec))
	d.est.Observe(estAllApps, float64(exec))
}

// weight returns the backlog contribution of one outstanding request of the
// given application: its estimated service time, the fleet-wide prior for
// unseen applications, or 1 (plain queue counting) before any completion.
func (d *leastLoaded) weight(app int) float64 {
	if w, ok := d.est.Predict(app); ok {
		return w
	}
	if w, ok := d.est.Predict(estAllApps); ok {
		return w
	}
	return 1
}

// WarmState and WarmStart carry the learned service-time estimates across
// runs, so a measurement run starts with a converged predictor instead of
// the cold join-shortest-queue fallback.
func (d *leastLoaded) WarmState() any { return d.est.Snapshot() }

func (d *leastLoaded) WarmStart(state any) {
	if m, ok := state.(map[int]float64); ok {
		d.est.Restore(m)
	}
}

// LookaheadDispatch opts least-loaded into lookahead windows: it reads the
// per-app in-flight counts, weighted by estimates learned from the Completed
// feedback stream.
func (d *leastLoaded) LookaheadDispatch() {}

// prepWeights refreshes the per-app scratch weights for one Pick.
func (d *leastLoaded) prepWeights() {
	for a := range d.weights {
		d.weights[a] = d.weight(a)
	}
}

// backlog returns a node's predicted backlog under the current weights.
func (d *leastLoaded) backlog(n *Node) float64 {
	var load float64
	for a, c := range n.inflightByApp {
		if c > 0 {
			load += float64(float64(c) * d.weights[a])
		}
	}
	return load
}

func (d *leastLoaded) Pick(at sim.Time, class, app int, nodes []*Node) int {
	d.prepWeights()
	best, bestLoad := -1, 0.0
	for i, n := range nodes {
		if load := d.backlog(n); best < 0 || load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}

// --- least-loaded-fits (memory-aware) ---------------------------------------

type leastLoadedFits struct {
	leastLoaded
	ws []int64 // per-app working sets, set by the cluster after Reset
}

// NewLeastLoadedFits returns the memory-aware predicted-backlog dispatcher.
// Without working sets (or for zero-footprint requests) it degenerates to
// least-loaded exactly.
func NewLeastLoadedFits() Dispatcher { return &leastLoadedFits{} }

func (d *leastLoadedFits) Name() string { return string(KindLeastLoadedFits) }

func (d *leastLoadedFits) SetWorkingSets(ws []int64) { d.ws = ws }

// LookaheadDispatch opts least-loaded-fits into lookahead windows: it reads
// least-loaded's inputs plus Node.FreeHBM and the memory-demand counters.
func (d *leastLoadedFits) LookaheadDispatch() {}

// Pick places the request on the least-predicted-backlog node among those
// with enough free HBM for its working set. When no node fits — the fleet is
// oversubscribed — it minimizes the projected oversubscription
// (memDemand + need − capacity): the node where the request adds the least
// swap debt (or, with swap off, joins the shortest memory wait), ties to the
// lowest fleet index.
func (d *leastLoadedFits) Pick(at sim.Time, class, app int, nodes []*Node) int {
	if len(nodes) == 0 {
		return -1
	}
	var need int64
	if app < len(d.ws) {
		need = d.ws[app]
	}
	d.prepWeights()
	best, bestLoad := -1, 0.0
	for i, n := range nodes {
		if n.FreeHBM() < need {
			continue
		}
		if load := d.backlog(n); best < 0 || load < bestLoad {
			best, bestLoad = i, load
		}
	}
	if best >= 0 {
		return best
	}
	var bestDebt int64
	for i, n := range nodes {
		if debt := n.memDemand + need - n.hbm; best < 0 || debt < bestDebt {
			best, bestDebt = i, debt
		}
	}
	return best
}

// --- class-affinity --------------------------------------------------------

type classAffinity struct {
	noopHooks
	classes int
}

// NewClassAffinity returns the class-pinning dispatcher.
func NewClassAffinity() Dispatcher { return &classAffinity{} }

func (d *classAffinity) Name() string { return string(KindClassAffinity) }

func (d *classAffinity) Reset(nodes, classes, apps int) { d.classes = classes }

// LookaheadDispatch opts class-affinity into lookahead windows: it reads
// Node.InFlight within the class's subset (the congruence subset itself
// derives from Node.Index and the eligible-set shape, both fixed between
// control events).
func (d *classAffinity) LookaheadDispatch() {}

// Pick recomputes the class's subset from the live eligible set on every
// call: eligible nodes whose fleet INDEX is congruent to the class modulo
// min(classes, len(nodes)), shortest queue within the subset. Keying on the
// fleet index (the documented contract) rather than the slice position keeps
// a class pinned to the same physical nodes while drains, kills and
// autoscaler grows reshape the slice — a position-based subset silently
// migrates the class (and its warmed working set) to whichever nodes happen
// to occupy those positions, and froze autoscaler-added nodes out whenever
// their positions fell outside the original shape. When the congruence class
// has no eligible member the class falls back to shortest-queue over the
// whole set instead of going unserved; an empty eligible set returns -1.
func (d *classAffinity) Pick(at sim.Time, class, app int, nodes []*Node) int {
	if len(nodes) == 0 {
		return -1
	}
	stride := d.classes
	if len(nodes) < stride {
		stride = len(nodes)
	}
	if stride < 1 {
		stride = 1
	}
	want := class % stride
	best, bestLoad := -1, 0
	for p, n := range nodes {
		if n.Index%stride != want {
			continue
		}
		if l := n.InFlight(); best < 0 || l < bestLoad {
			best, bestLoad = p, l
		}
	}
	if best < 0 {
		return shortestQueue(nodes)
	}
	return best
}

// --- power of two choices --------------------------------------------------

type powerOfTwo struct {
	noopHooks
	seed uint64
	r    *rng.Source
}

// NewPowerOfTwo returns the seeded two-choices dispatcher: sample two nodes,
// join the shorter queue. The same seed always reproduces the same sample
// sequence, so runs stay byte-identical.
func NewPowerOfTwo(seed uint64) Dispatcher {
	if seed == 0 {
		seed = 1
	}
	return &powerOfTwo{seed: seed}
}

func (d *powerOfTwo) Name() string { return string(KindPowerOfTwo) }

func (d *powerOfTwo) Reset(nodes, classes, apps int) { d.r = rng.New(d.seed) }

// LookaheadDispatch opts p2c into lookahead windows: it reads Node.InFlight
// of the two sampled nodes; the sample stream itself is the dispatcher's own
// seeded state, consumed in arrival order — which the micro-merge preserves.
func (d *powerOfTwo) LookaheadDispatch() {}

func (d *powerOfTwo) Pick(at sim.Time, class, app int, nodes []*Node) int {
	if len(nodes) == 0 {
		return -1
	}
	if len(nodes) == 1 {
		return 0
	}
	a := d.r.Intn(len(nodes))
	b := d.r.Intn(len(nodes))
	if a == b {
		return a
	}
	// Prefer the shorter queue; on equal queues keep the lower index, so
	// the choice never depends on sample order.
	if b < a {
		a, b = b, a
	}
	if nodes[b].InFlight() < nodes[a].InFlight() {
		return b
	}
	return a
}
