package cluster

import (
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

// reqState is a request's position in its lifecycle. Requests (arrivals) are
// distinct from attempts (dispatches): one request spawns one or more
// attempts through retries and hedging, and resolves exactly once.
type reqState int8

const (
	reqPending reqState = iota // not yet arrived
	reqQueued                  // waiting in an admission queue
	reqActive                  // at least one attempt launched, unresolved
	reqCompleted
	reqDropped
	reqShed
)

// reqRec is one request's lifecycle ledger entry.
type reqRec struct {
	state      reqState
	tries      int // primary-chain attempts launched (first dispatch + retries)
	hedges     int // hedge attempts launched
	primary    int // active primary attempt id (-1 = none)
	hedge      int // active hedge attempt id (-1 = none)
	hedgeID    sim.EventID
	hedgeArmed bool
}

// attRec is one dispatch attempt's ledger entry. Attempts are append-only;
// their id is the index into Cluster.atts.
type attRec struct {
	req        int
	node       int         // fleet node index the attempt was placed on
	started    bool        // admission event fired (context and process exist)
	abandoned  bool        // logically dead (timed out or lost the hedge race)
	admitID    sim.EventID // node-engine admission event, cancelable until started
	timeoutID  sim.EventID // control-engine timeout
	hasTimeout bool
}

// attempt launch kinds.
const (
	attFirst = iota
	attRetry
	attHedge
)

// initResilience arms the request-lifecycle manager: the per-request and
// per-attempt ledgers, per-class retry budgets and admission queues, per-node
// circuit breakers, and the per-class latency sketches the hedger reads.
// Called from New before the starting fleet is built.
func (c *Cluster) initResilience() {
	spec := c.rc.Resilience.WithDefaults()
	c.res = &spec
	c.resSeed = spec.Seed
	if c.resSeed == 0 {
		c.resSeed = rng.SeedFrom(c.rc.Sys.Seed, resilienceSeedTag)
	}
	c.reqs = make([]reqRec, len(c.tr.Arrivals))
	for i := range c.reqs {
		c.reqs[i].primary, c.reqs[i].hedge = -1, -1
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
				c.reqs[i].state = reqQueued
				c.queues[a.Class] = append(c.queues[a.Class], i)
				return
			}
			c.reqs[i].state = reqShed
			c.shedCount++
			c.shedByClass[a.Class]++
			return
		}
	}
	c.launch(i, attFirst, at)
}

// launch places one attempt of request i at time at: filter the eligible
// nodes (Up, breaker-closed or probing; a hedge also avoids the primary's
// node), run the dispatch protocol, and arm the attempt's timeout on the
// control engine. Masking falls back to the unmasked Up set when every
// breaker is open — a fully tripped fleet keeps serving rather than wedging.
func (c *Cluster) launch(i, kind int, at sim.Time) {
	a := &c.tr.Arrivals[i]
	req := &c.reqs[i]

	avoid := -1
	if kind == attHedge && req.primary >= 0 {
		avoid = c.atts[req.primary].node
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

	attID := len(c.atts)
	c.atts = append(c.atts, attRec{req: i, node: n.Index})
	att := &c.atts[attID]

	c.book(n, i)
	switch kind {
	case attRetry:
		n.Acct.Retry(a.Class)
		c.retries++
	case attHedge:
		n.Acct.Hedge(a.Class)
		c.hedgeCount++
	}
	n.live[attID] = at
	if c.breakers != nil {
		c.breakers[n.Index].Dispatched(at)
	}
	// The engine-side admission pays the same dispatch-path latency floor as
	// the plain path (see Cluster.place): the attempt's command must cross
	// the node's PCIe link before it can touch the device. Timeouts and
	// cancellations keyed on the attempt still work — admitID stays
	// cancelable until the event fires.
	att.admitID = n.Sys.Eng.AtFunc(at+n.floor, resAdmitEvent, n, int64(attID))
	c.refresh(n.Index)
	if c.res.Timeout > 0 {
		to := at + c.res.Timeout
		att.timeoutID = c.ctl.AtFunc(to, attTimeoutEvent, c, int64(attID))
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
		req.state = reqActive
		c.liveReq[a.Class]++
		if c.budgets != nil {
			c.budgets[a.Class].Refill()
		}
	}
	c.armHedge(i, at)
}

// armHedge schedules the hedge timer for request i's current primary attempt
// at the class's observed latency quantile, once the class has enough
// completions for the quantile to mean something.
func (c *Cluster) armHedge(i int, at sim.Time) {
	h := c.res.Hedge
	if h == nil {
		return
	}
	req := &c.reqs[i]
	if req.hedges >= h.MaxHedges || req.hedgeArmed {
		return
	}
	class := c.tr.Arrivals[i].Class
	lat := &c.hedgeLat[class]
	if lat.N() < uint64(h.MinObs) {
		return
	}
	d := lat.Quantile(h.Quantile)
	if d < 1 {
		d = 1
	}
	t := at + d
	req.hedgeID = c.ctl.AtFunc(t, fireHedgeEvent, c, int64(i))
	req.hedgeArmed = true
	c.refreshCtl()
}

// The request lifecycle's per-attempt events are closure-free (sim.Func):
// the node or cluster rides as the context and the attempt or arrival index
// as the scalar. A control event's time is the control engine's clock.
func resAdmitEvent(p any, x int64) {
	n := p.(*Node)
	n.clu.resAdmit(n, int(x))
}

func attTimeoutEvent(p any, x int64) {
	c := p.(*Cluster)
	c.attTimeout(int(x), c.ctl.Now())
}

func fireHedgeEvent(p any, x int64) {
	c := p.(*Cluster)
	c.fireHedge(int(x), c.ctl.Now())
}

func fireRetryEvent(p any, x int64) {
	c := p.(*Cluster)
	c.fireRetry(int(x), c.ctl.Now())
}

// fireHedge launches the backup attempt if the primary is still out.
func (c *Cluster) fireHedge(i int, t sim.Time) {
	req := &c.reqs[i]
	req.hedgeArmed = false
	if req.state != reqActive || req.primary < 0 || req.hedge >= 0 {
		return
	}
	if req.hedges >= c.res.Hedge.MaxHedges {
		return
	}
	c.launch(i, attHedge, t)
}

// resAdmit runs on the owning node's engine at the attempt's dispatch time:
// the accounting-free admission primitive places the context and process;
// the outcome is judged at completion.
func (c *Cluster) resAdmit(n *Node, attID int) {
	att := &c.atts[attID]
	att.started = true
	i := att.req
	// The resilient path does not queue on memory: an attempt whose working
	// set does not fit is refused like a full context table, and the retry
	// machinery (backoff, budget, breaker feedback) owns the wait. The
	// ledger is keyed by attempt id here — attempts, not arrivals, occupy
	// memory.
	if ws := c.wsOf(i); ws > 0 && !c.memReserve(n, attID, ws) {
		c.rejectAttempt(n, attID)
		return
	}
	if err := n.adm.Admit(i, attID); err != nil {
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
	att := &c.atts[attID]
	att.abandoned = true
	a := &c.tr.Arrivals[att.req]
	delete(n.live, attID)
	c.unbook(n, a.App)
	n.mem.FreeOwner(attID) // no-op when the memory reservation failed
	c.lose(n, a.Class)
	c.rejected++
	c.disarmTimeout(att)
	if c.breakers != nil {
		c.breakers[n.Index].Record(c.now, false)
	}
	c.attFailed(attID, c.now, rejectBackoff)
}

// attComplete fires on the owning node's engine when an attempt's run
// finishes. A live attempt is the request's winner: it gets the SLO
// accounting and resolves the request, cancelling the losing hedge. An
// abandoned attempt is a ghost — its work drained on the node after the
// request had already moved on, so only the physical occupancy bookkeeping
// happens.
func (c *Cluster) attComplete(n *Node, attID int, rec proc.RunRecord) {
	att := &c.atts[attID]
	a := &c.tr.Arrivals[att.req]
	delete(n.live, attID)
	c.unbook(n, a.App)
	// Ghost or winner, the attempt held its working set until now.
	n.mem.FreeOwner(attID)
	if att.abandoned {
		n.ghostDone++
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
	c.resolveReq(att.req, attID, reqCompleted, n.Index)
	c.afterResolve(n)
}

// afterResolve retires a draining node that just emptied.
func (c *Cluster) afterResolve(n *Node) {
	if n.state == NodeDraining && n.InFlight() == 0 {
		c.retire(n, c.now)
	}
}

// resolveReq settles request i's lifecycle: count the outcome, cancel the
// pending hedge timer, abandon the losing sibling attempt, and let queued
// work take the freed admission slot.
func (c *Cluster) resolveReq(i, winner int, outcome reqState, node int) {
	req := &c.reqs[i]
	class := c.tr.Arrivals[i].Class
	req.state = outcome
	c.liveReq[class]--
	switch outcome {
	case reqCompleted:
		c.reqDone++
	case reqDropped:
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
	req.primary, req.hedge = -1, -1
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
	att := &c.atts[attID]
	att.abandoned = true
	n := c.Nodes[att.node]
	a := &c.tr.Arrivals[att.req]
	n.Acct.CancelAttempt(a.Class)
	c.disarmTimeout(att)
	if !att.started {
		c.dropUnstarted(n, attID, a.App)
	}
}

// dropUnstarted takes an abandoned attempt that never reached its node's
// engine off the node: its admission event is cancelled (when the machine
// still exists) and it resolves there as a ghost. It never started, so it
// never reserved memory.
func (c *Cluster) dropUnstarted(n *Node, attID, app int) {
	if n.Sys != nil {
		n.Sys.Eng.Cancel(c.atts[attID].admitID)
		c.refresh(n.Index)
	}
	delete(n.live, attID)
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
// decision.
func (c *Cluster) attTimeout(attID int, t sim.Time) {
	att := &c.atts[attID]
	att.hasTimeout = false
	if att.abandoned {
		return
	}
	att.abandoned = true
	n := c.Nodes[att.node]
	a := &c.tr.Arrivals[att.req]
	n.Acct.TimeOut(a.Class)
	if c.breakers != nil {
		c.breakers[att.node].Record(t, false)
	}
	if !att.started {
		c.dropUnstarted(n, attID, a.App)
	}
	c.attFailed(attID, t, 0)
}

// rejectBackoff floors the retry delay after an admission rejection: a node
// with a full context table will not free a slot in the same instant, so
// same-tick relaunch loops are cut off even under a zero-backoff policy.
const rejectBackoff = sim.Microsecond

// attFailed routes a failed live attempt (timeout, kill loss, or admission
// rejection) to the request's next step: nothing while a sibling attempt is
// still racing, a backoff-scheduled retry while attempts and budget remain,
// and a Drop otherwise. The drop is attributed to the failing attempt's node.
// minDelay floors the backoff (0 for timeout and kill paths).
func (c *Cluster) attFailed(attID int, t, minDelay sim.Time) {
	att := &c.atts[attID]
	i := att.req
	req := &c.reqs[i]
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
		c.resolveReq(i, -1, reqDropped, att.node)
		return
	}
	if pol.MaxAttempts > 0 && req.tries >= pol.MaxAttempts {
		c.resolveReq(i, -1, reqDropped, att.node)
		return
	}
	class := c.tr.Arrivals[i].Class
	if c.budgets != nil && !c.budgets[class].Take() {
		c.resolveReq(i, -1, reqDropped, att.node)
		return
	}
	d := pol.Delay(req.tries, resilience.JitterU(c.resSeed, i, req.tries))
	if d < minDelay {
		d = minDelay
	}
	if d <= 0 {
		c.launch(i, attRetry, t)
		return
	}
	at := t + d
	c.ctl.AtFunc(at, fireRetryEvent, c, int64(i))
	c.refreshCtl()
}

// fireRetry launches the backoff-delayed retry.
func (c *Cluster) fireRetry(i int, at sim.Time) {
	if c.reqs[i].state != reqActive {
		return
	}
	c.launch(i, attRetry, at)
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
			c.launch(i, attFirst, at)
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
// decision. ids are the node's in-flight attempts in ascending order, so the
// loss order — and every downstream dispatcher decision — is deterministic.
func (c *Cluster) killAttempts(n *Node, ids []int, at sim.Time) {
	lost := ids[:0]
	for _, attID := range ids {
		att := &c.atts[attID]
		a := &c.tr.Arrivals[att.req]
		c.unbook(n, a.App)
		if att.abandoned {
			n.ghostLost++
			continue
		}
		c.lose(n, a.Class)
		c.lostWork += at - n.live[attID]
		c.disarmTimeout(att)
		lost = append(lost, attID)
	}
	clear(n.live)
	for _, attID := range lost {
		c.attFailed(attID, at, 0)
	}
}

// resilienceDone reports whether every request has resolved (completed,
// dropped, or shed). Ghost attempts may still hold node capacity; their
// outcome cannot change anything, so the run stops without them.
func (c *Cluster) resilienceDone() bool {
	return c.reqDone+c.dropped+c.shedCount == len(c.tr.Arrivals)
}
