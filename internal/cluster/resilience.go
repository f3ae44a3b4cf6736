package cluster

import (
	"fmt"

	"repro/internal/arrivals"
	"repro/internal/metrics"
	"repro/internal/proc"
	"repro/internal/resilience"
	"repro/internal/rng"
	"repro/internal/sim"
)

// resilienceSeedTag namespaces the retry-jitter stream from the node jitter,
// dispatch and fault streams.
const resilienceSeedTag = 0x4E57

// reqRec is one in-flight request's ledger entry. Requests (arrivals) are
// distinct from attempts (dispatches): one request spawns one or more
// attempts through retries and hedging, and resolves exactly once. A request
// holds its slot from its first launch until it resolves; queued and shed
// requests hold none, since nothing reads their state.
type reqRec struct {
	arr        int // arrival index
	tries      int // primary-chain attempts launched (first dispatch + retries)
	hedges     int // hedge attempts launched
	primary    int // active primary attempt slot (-1 = none)
	hedge      int // active hedge attempt slot (-1 = none)
	hedgeID    sim.EventID
	hedgeArmed bool
}

// attRec is one dispatch attempt's ledger entry. An attempt holds its slot
// from launch until nothing can reach it: its completion, its rejection, its
// unstarted drop, or its node's kill. A ghost outlives its request's slot,
// so the record keeps the arrival index too.
type attRec struct {
	seq        int         // launch number: a kill loses attempts in this order
	req        int         // request slot (stale once the request resolved)
	arr        int         // arrival index
	node       int         // fleet node index the attempt was placed on
	live       int         // the attempt's live slot on that node
	started    bool        // admission event fired (context and process exist)
	abandoned  bool        // logically dead (timed out or lost the hedge race)
	admitID    sim.EventID // node-engine admission event, cancelable until started
	timeoutID  sim.EventID // control-engine timeout
	hasTimeout bool
}

// ledger is a slot table over in-flight records: a released slot goes on a
// free list for the next take, so the table grows to the most records alive
// at once rather than to the number ever made. Each slot's generation is
// bumped on release; a timer carries a handle of (slot, generation), packed
// like core's kernel handles, so a handle that outlived its record is
// recognised even after the slot was reused.
type ledger[T any] struct {
	slots []slot[T]
	free  []int
}

type slot[T any] struct {
	rec T
	gen uint32
}

// take returns a free slot; the caller initializes its record.
func (l *ledger[T]) take() int {
	if n := len(l.free); n > 0 {
		s := l.free[n-1]
		l.free = l.free[:n-1]
		return s
	}
	l.slots = append(l.slots, slot[T]{})
	return len(l.slots) - 1
}

// release frees slot s and invalidates every handle made for it.
func (l *ledger[T]) release(s int) {
	l.slots[s].gen++
	l.free = append(l.free, s)
}

// at returns slot s's record. The pointer dies with the next take.
func (l *ledger[T]) at(s int) *T { return &l.slots[s].rec }

// handle packs slot s and its generation into an event scalar.
func (l *ledger[T]) handle(s int) int64 { return int64(s)<<32 | int64(l.slots[s].gen) }

// lookup unpacks handle h: its slot, and whether the slot still holds the
// record the handle was made for.
func (l *ledger[T]) lookup(h int64) (int, bool) {
	s := int(h >> 32)
	return s, l.slots[s].gen == uint32(h)
}

// attempt launch kinds.
const (
	attFirst = iota
	attRetry
	attHedge
)

// initResilience arms the request-lifecycle manager: per-class retry
// budgets and admission queues, per-node circuit breakers, and the per-class
// latency sketches the hedger reads. The request and attempt ledgers start
// empty and grow with in-flight work. Called from New before the starting
// fleet is built.
func (c *Cluster) initResilience() {
	spec := c.rc.Resilience.WithDefaults()
	c.res = &spec
	c.resSeed = spec.Seed
	if c.resSeed == 0 {
		c.resSeed = rng.SeedFrom(c.rc.Sys.Seed, resilienceSeedTag)
	}
	if spec.Retry != nil && spec.Retry.Budget != nil {
		c.budgets = make([]resilience.TokenBucket, len(c.tr.Classes))
		for i := range c.budgets {
			c.budgets[i] = resilience.NewTokenBucket(*spec.Retry.Budget)
		}
	}
	if spec.Breaker != nil {
		// Non-nil even while empty: addNode appends one breaker per node.
		c.breakers = make([]resilience.Breaker, 0)
	}
	c.hedgeLat = make([]metrics.Sketch, len(c.tr.Classes))
	c.queues = make([][]int, len(c.tr.Classes))
	c.liveReq = make([]int, len(c.tr.Classes))
	c.shedByClass = make([]int, len(c.tr.Classes))
	for _, cl := range c.tr.Classes {
		if cl.Priority > c.maxPrio {
			c.maxPrio = cl.Priority
		}
	}
}

// upCount counts Up nodes (the scale factor of the shedder's per-class
// ceiling).
func (c *Cluster) upCount() int {
	up := 0
	for _, n := range c.Nodes {
		if n.state == NodeUp {
			up++
		}
	}
	return up
}

// resArrive runs admission control for fresh arrival i: rt-tier classes (the
// trace's highest priority) dispatch unconditionally; best-effort classes
// over their live-request ceiling queue up to the configured depth and are
// shed past it. Graceful degradation under overload sheds best-effort work
// first, never rt.
func (c *Cluster) resArrive(i int, at sim.Time) {
	a := &c.tr.Arrivals[i]
	if c.res.Shed != nil && c.tr.Classes[a.Class].Priority < c.maxPrio {
		limit := c.res.Shed.PerNode * c.upCount()
		if c.liveReq[a.Class] >= limit {
			if len(c.queues[a.Class]) < c.res.Shed.Queue {
				c.queues[a.Class] = append(c.queues[a.Class], i)
				return
			}
			c.shedCount++
			c.shedByClass[a.Class]++
			return
		}
	}
	c.startReq(i, at)
}

// startReq gives arrival i a request slot and launches its first attempt.
func (c *Cluster) startReq(i int, at sim.Time) {
	r := c.reqs.take()
	*c.reqs.at(r) = reqRec{arr: i, primary: -1, hedge: -1}
	c.launch(r, attFirst, at)
}

// launch places one attempt of the request in slot r at time at: filter the
// eligible nodes (Up, breaker-closed or probing; a hedge also avoids the
// primary's node), run the dispatch protocol, and arm the attempt's timeout
// on the control engine. Masking falls back to the unmasked Up set when
// every breaker is open — a fully tripped fleet keeps serving rather than
// wedging.
func (c *Cluster) launch(r, kind int, at sim.Time) {
	req := c.reqs.at(r)
	i := req.arr
	a := &c.tr.Arrivals[i]

	avoid := -1
	if kind == attHedge && req.primary >= 0 {
		avoid = c.atts.at(req.primary).node
	}
	elig := c.eligible[:0]
	for _, n := range c.Nodes {
		if n.state != NodeUp || n.Index == avoid {
			continue
		}
		if c.breakers != nil && !c.breakers[n.Index].Allow(at) {
			continue
		}
		elig = append(elig, n)
	}
	if len(elig) == 0 && c.breakers != nil {
		// Every reachable node is tripped: dispatch through anyway.
		for _, n := range c.Nodes {
			if n.state == NodeUp && n.Index != avoid {
				elig = append(elig, n)
			}
		}
	}
	if len(elig) == 0 && kind == attHedge {
		// Hedging strictly wants another node; with none, skip the hedge.
		c.eligible = elig
		return
	}
	n := c.pickFrom(elig, i, at)
	if n == nil {
		return
	}

	attID := c.atts.take()
	att := c.atts.at(attID)
	*att = attRec{seq: c.attSeq, req: r, arr: i, node: n.Index}
	c.attSeq++

	c.book(n, i)
	switch kind {
	case attRetry:
		n.Acct.Retry(a.Class)
		c.retries++
	case attHedge:
		n.Acct.Hedge(a.Class)
		c.hedgeCount++
	}
	att.live = n.enter(attID, at)
	if c.breakers != nil {
		c.breakers[n.Index].Dispatched(at)
	}
	// The engine-side admission pays the same dispatch-path latency floor as
	// the plain path (see Cluster.place): the attempt's command must cross
	// the node's PCIe link before it can touch the device. Timeouts and
	// cancellations keyed on the attempt still work — admitID stays
	// cancelable until the event fires.
	att.admitID = n.Sys.Eng.AtFunc(at+n.floor, resAdmitEvent, n, c.atts.handle(attID))
	c.refresh(n.Index)
	if c.res.Timeout > 0 {
		to := at + c.res.Timeout
		att.timeoutID = c.ctl.AtFunc(to, attTimeoutEvent, c, c.atts.handle(attID))
		att.hasTimeout = true
		c.refreshCtl()
	}

	if kind == attHedge {
		req.hedge = attID
		req.hedges++
		return
	}
	req.primary = attID
	req.tries++
	if kind == attFirst {
		c.liveReq[a.Class]++
		if c.budgets != nil {
			c.budgets[a.Class].Refill()
		}
	}
	c.armHedge(r, at)
}

// armHedge schedules the hedge timer for request r's current primary attempt
// at the class's observed latency quantile, once the class has enough
// completions for the quantile to mean something.
func (c *Cluster) armHedge(r int, at sim.Time) {
	h := c.res.Hedge
	if h == nil {
		return
	}
	req := c.reqs.at(r)
	if req.hedges >= h.MaxHedges || req.hedgeArmed {
		return
	}
	class := c.tr.Arrivals[req.arr].Class
	lat := &c.hedgeLat[class]
	if lat.N() < uint64(h.MinObs) {
		return
	}
	d := lat.Quantile(h.Quantile)
	if d < 1 {
		d = 1
	}
	t := at + d
	req.hedgeID = c.ctl.AtFunc(t, fireHedgeEvent, c, c.reqs.handle(r))
	req.hedgeArmed = true
	c.refreshCtl()
}

// The request lifecycle's per-attempt events are closure-free (sim.Func):
// the node or cluster rides as the context and a ledger handle as the
// scalar. A control event's time is the control engine's clock. A hedge or
// retry timer whose request has resolved is ignored; admission and timeout
// events never outlive their attempt (every path that releases an attempt
// slot has cancelled them or seen them fire), so a stale one panics.
func resAdmitEvent(p any, x int64) {
	n := p.(*Node)
	n.clu.resAdmit(n, n.clu.liveAtt(x))
}

func attTimeoutEvent(p any, x int64) {
	c := p.(*Cluster)
	c.attTimeout(c.liveAtt(x), c.ctl.Now())
}

func fireHedgeEvent(p any, x int64) {
	c := p.(*Cluster)
	if r, ok := c.reqs.lookup(x); ok {
		c.fireHedge(r, c.ctl.Now())
	}
}

func fireRetryEvent(p any, x int64) {
	c := p.(*Cluster)
	if r, ok := c.reqs.lookup(x); ok {
		c.launch(r, attRetry, c.ctl.Now())
	}
}

// liveAtt returns the attempt slot of an admission or timeout handle,
// panicking when the attempt was already released.
func (c *Cluster) liveAtt(h int64) int {
	s, ok := c.atts.lookup(h)
	if !ok {
		panic(fmt.Sprintf("cluster: event fired for released attempt slot %d", s))
	}
	return s
}

// fireHedge launches the backup attempt if the primary is still out.
func (c *Cluster) fireHedge(r int, t sim.Time) {
	req := c.reqs.at(r)
	req.hedgeArmed = false
	if req.primary < 0 || req.hedge >= 0 || req.hedges >= c.res.Hedge.MaxHedges {
		return
	}
	c.launch(r, attHedge, t)
}

// resAdmit runs on the owning node's engine at the attempt's dispatch time:
// the accounting-free admission primitive places the context and process;
// the outcome is judged at completion.
func (c *Cluster) resAdmit(n *Node, attID int) {
	att := c.atts.at(attID)
	att.started = true
	i := att.arr
	// The resilient path does not queue on memory: an attempt whose working
	// set does not fit is refused like a full context table, and the retry
	// machinery (backoff, budget, breaker feedback) owns the wait.
	ws := c.wsOf(i)
	if !n.memReserve(ws) {
		c.rejectAttempt(n, attID)
	} else if err := n.adm.Admit(i, attID); err != nil {
		n.memFree(ws) // refused after the reservation held: give it back
		c.rejectAttempt(n, attID)
	}
}

// attDone is the node's resilient-path completion callback.
func (n *Node) attDone(attID int, rec proc.RunRecord) { n.clu.attComplete(n, attID, rec) }

// rejectAttempt handles a node refusing an attempt at admission time (context
// table full): the attempt counts as lost on the refusing node, its breaker
// records a failure, and the request takes the retry decision — with a floored
// backoff, so a saturated fleet is probed at a bounded rate instead of spun on.
func (c *Cluster) rejectAttempt(n *Node, attID int) {
	att := c.atts.at(attID)
	att.abandoned = true
	a := &c.tr.Arrivals[att.arr]
	n.leave(att.live)
	c.unbook(n, a.App)
	c.lose(n, a.Class)
	c.rejected++
	c.disarmTimeout(att)
	if c.breakers != nil {
		c.breakers[n.Index].Record(c.now, false)
	}
	c.attFailed(attID, c.now, rejectBackoff)
	c.atts.release(attID)
}

// attComplete fires on the owning node's engine when an attempt's run
// finishes. A live attempt is the request's winner: it gets the SLO
// accounting and resolves the request, cancelling the losing hedge. An
// abandoned attempt is a ghost — its work drained on the node after the
// request had already moved on, so only the physical occupancy bookkeeping
// happens.
func (c *Cluster) attComplete(n *Node, attID int, rec proc.RunRecord) {
	att := c.atts.at(attID)
	a := &c.tr.Arrivals[att.arr]
	n.leave(att.live)
	c.unbook(n, a.App)
	// Ghost or winner, the attempt held its working set until now.
	n.memFree(c.wsOf(att.arr))
	if att.abandoned {
		n.ghostDone++
		c.atts.release(attID)
		c.afterResolve(n)
		return
	}
	c.disarmTimeout(att)
	n.finished++
	c.finished++
	exec := arrivals.Account(n.Acct, a, rec)
	c.disp.Completed(n.Index, a.Class, a.App, exec)
	if c.breakers != nil {
		c.breakers[n.Index].Record(c.now, true)
	}
	c.hedgeLat[a.Class].Add(rec.End - a.At)
	c.resolveReq(att.req, attID, n.Index)
	c.atts.release(attID)
	c.afterResolve(n)
}

// afterResolve retires a draining node that just emptied.
func (c *Cluster) afterResolve(n *Node) {
	if n.state == NodeDraining && n.InFlight() == 0 {
		c.retire(n, c.now)
	}
}

// resolveReq settles request r's lifecycle: count the outcome (completed by
// attempt winner, or dropped on node when winner < 0), cancel the pending
// hedge timer, release the request's slot, abandon the losing sibling
// attempt, and let queued work take the freed admission slot.
func (c *Cluster) resolveReq(r, winner, node int) {
	req := c.reqs.at(r)
	class := c.tr.Arrivals[req.arr].Class
	c.liveReq[class]--
	if winner >= 0 {
		c.reqDone++
	} else {
		c.dropped++
		c.Nodes[node].Acct.Drop(class)
	}
	if req.hedgeArmed {
		req.hedgeArmed = false
		c.ctl.Cancel(req.hedgeID)
		c.refreshCtl()
	}
	loser := -1
	if req.primary >= 0 && req.primary != winner {
		loser = req.primary
	}
	if req.hedge >= 0 && req.hedge != winner {
		loser = req.hedge
	}
	c.reqs.release(r)
	if loser >= 0 {
		c.cancelAttempt(loser)
	}
	c.drainQueues(c.now)
}

// cancelAttempt abandons the losing hedge attempt: its timeout is cancelled
// via the engine's O(1) Cancel, and if it has not physically started its
// admission event is cancelled too and it resolves on the spot. A started
// loser drains as a ghost.
func (c *Cluster) cancelAttempt(attID int) {
	att := c.atts.at(attID)
	att.abandoned = true
	n := c.Nodes[att.node]
	a := &c.tr.Arrivals[att.arr]
	n.Acct.CancelAttempt(a.Class)
	c.disarmTimeout(att)
	if !att.started {
		c.dropUnstarted(n, attID, a.App)
		c.atts.release(attID)
	}
}

// dropUnstarted takes an abandoned attempt that never reached its node's
// engine off the node: its admission event is cancelled (when the machine
// still exists) and it resolves there as a ghost. It never started, so it
// never reserved memory.
func (c *Cluster) dropUnstarted(n *Node, attID, app int) {
	if n.Sys != nil {
		n.Sys.Eng.Cancel(c.atts.at(attID).admitID)
		c.refresh(n.Index)
	}
	n.leave(c.atts.at(attID).live)
	c.unbook(n, app)
	n.ghostDone++
}

// disarmTimeout cancels att's pending control-engine timeout, if any.
func (c *Cluster) disarmTimeout(att *attRec) {
	if att.hasTimeout {
		att.hasTimeout = false
		c.ctl.Cancel(att.timeoutID)
		c.refreshCtl()
	}
}

// attTimeout fires on the control engine when an attempt outlives its
// deadline: the attempt is abandoned (its work drains as a ghost), the
// node's breaker records the failure, and the request moves to the retry
// decision. An unstarted attempt comes off its node before that decision,
// so a zero-backoff relaunch already sees it gone, and frees its slot after.
func (c *Cluster) attTimeout(attID int, t sim.Time) {
	att := c.atts.at(attID)
	att.hasTimeout = false
	if att.abandoned {
		return
	}
	att.abandoned = true
	n := c.Nodes[att.node]
	a := &c.tr.Arrivals[att.arr]
	n.Acct.TimeOut(a.Class)
	if c.breakers != nil {
		c.breakers[att.node].Record(t, false)
	}
	started := att.started // att dies if attFailed launches a retry
	if !started {
		c.dropUnstarted(n, attID, a.App)
	}
	c.attFailed(attID, t, 0)
	if !started {
		c.atts.release(attID)
	}
}

// rejectBackoff floors the retry delay after an admission rejection: a node
// with a full context table will not free a slot in the same instant, so
// same-tick relaunch loops are cut off even under a zero-backoff policy.
const rejectBackoff = sim.Microsecond

// attFailed routes a failed live attempt (timeout, kill loss, or admission
// rejection) to the request's next step: nothing while a sibling attempt is
// still racing, a backoff-scheduled retry while attempts and budget remain,
// and a Drop otherwise. The drop is attributed to the failing attempt's node.
// minDelay floors the backoff (0 for timeout and kill paths). The retry
// jitter is keyed by arrival index, never by slot, so it does not depend on
// which slots happen to be free.
func (c *Cluster) attFailed(attID int, t, minDelay sim.Time) {
	att := c.atts.at(attID)
	r, node := att.req, att.node
	req := c.reqs.at(r)
	if req.primary == attID {
		req.primary = -1
	} else if req.hedge == attID {
		req.hedge = -1
	}
	if req.primary >= 0 || req.hedge >= 0 {
		return
	}
	pol := c.res.Retry
	if pol == nil {
		c.resolveReq(r, -1, node)
		return
	}
	if pol.MaxAttempts > 0 && req.tries >= pol.MaxAttempts {
		c.resolveReq(r, -1, node)
		return
	}
	class := c.tr.Arrivals[req.arr].Class
	if c.budgets != nil && !c.budgets[class].Take() {
		c.resolveReq(r, -1, node)
		return
	}
	d := pol.Delay(req.tries, resilience.JitterU(c.resSeed, req.arr, req.tries))
	if d < minDelay {
		d = minDelay
	}
	if d <= 0 {
		c.launch(r, attRetry, t)
		return
	}
	c.ctl.AtFunc(t+d, fireRetryEvent, c, c.reqs.handle(r))
	c.refreshCtl()
}

// drainQueues moves queued requests into freed admission slots, classes in
// index order, FIFO within a class.
func (c *Cluster) drainQueues(at sim.Time) {
	if c.res == nil || c.res.Shed == nil || c.queuedTotal() == 0 {
		return
	}
	up := c.upCount()
	for class := range c.queues {
		limit := c.res.Shed.PerNode * up
		q := c.queues[class]
		for len(q) > 0 && c.liveReq[class] < limit && c.err == nil {
			i := q[0]
			q = q[1:]
			c.queues[class] = q
			c.startReq(i, at)
			q = c.queues[class]
		}
		c.queues[class] = q
	}
}

// queuedTotal counts requests waiting in admission queues.
func (c *Cluster) queuedTotal() int {
	total := 0
	for _, q := range c.queues {
		total += len(q)
	}
	return total
}

// killAttempts is the resilient half of a node kill: abandoned ghosts die
// quietly (they were already counted), live attempts are counted lost with
// their timeouts cancelled, and each lost request then takes the retry
// decision. slots are the node's live slots in launch order of their
// attempts, so the loss order — and every downstream dispatcher decision —
// is deterministic.
func (c *Cluster) killAttempts(n *Node, slots []int, at sim.Time) {
	lost := slots[:0]
	for _, s := range slots {
		rec := *n.live.at(s)
		n.leave(s)
		attID := rec.id
		att := c.atts.at(attID)
		a := &c.tr.Arrivals[att.arr]
		c.unbook(n, a.App)
		if att.abandoned {
			n.ghostLost++
			c.atts.release(attID)
			continue
		}
		c.lose(n, a.Class)
		c.lostWork += at - rec.at
		c.disarmTimeout(att)
		lost = append(lost, attID)
	}
	for _, attID := range lost {
		c.attFailed(attID, at, 0)
		c.atts.release(attID)
	}
}

// resilienceDone reports whether every request has resolved (completed,
// dropped, or shed). Ghost attempts may still hold node capacity; their
// outcome cannot change anything, so the run stops without them.
func (c *Cluster) resilienceDone() bool {
	return c.reqDone+c.dropped+c.shedCount == len(c.tr.Arrivals)
}
