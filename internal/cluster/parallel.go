// Parallel-in-time cluster execution.
//
// Cluster.loop (cluster.go) is the one run loop. Its lockstep cases are the
// reference semantics: fire the globally earliest event across the control
// engine, the arrival stream and every node engine, with ties broken
// control < arrivals < node events and node events by index. That total
// order is also why one cluster run is single-threaded — every event waits
// for the global minimum. With the windowed executor on, the same loop hands
// arrivals and node events to the windows below instead; the control step
// and the MaxSimTime and empty-fleet stops stay shared.
//
// The observation that unlocks parallelism is that nodes only interact
// through three serialization points, all of which are visible in advance:
//
//   - the next control event (autoscaler tick, kill, restart) at ctlAt,
//   - the next undispatched arrival at tA (its dispatch may read fleet-wide
//     load), and
//   - MaxSimTime.
//
// Between now and a bound B no later than all three, every pending node
// event is node-local: an event on node i can only schedule on node i, and
// no dispatch or fleet mutation can land before B. So all node engines may
// run their events strictly before B independently — in parallel — provided
// the cross-node effects of completions (the fleet counter,
// Dispatcher.Completed feedback, drained-node retirement) are buffered and
// replayed at the window boundary in exactly the lockstep order: ascending
// (time, node index), with each node's buffer already in its engine's firing
// order. After the merge the cluster state is indistinguishable from having
// run lockstep to B.
//
// Control events and MaxSimTime always bound a window. The arrival bound is
// where the executor needs a dispatcher contract, and it has exactly one
// arrival protocol; a run that does not qualify keeps lockstep stepping
// (see Cluster.Executor):
//
// Latency-floor lookahead. A Pick at arrival time tA may read fleet state —
// but every admission physically lands floor(n) after its decision (the
// dispatch command must cross the node's PCIe link; see
// pcie.Config.DispatchFloor and Cluster.place), so no decision made in
// [tA, tA+floorMin) can perturb any node engine before tA+floorMin. A
// Lookahead dispatcher declares that its Pick reads only state the boundary
// merge reconstructs (in-flight counts, memory demand, completion feedback);
// a LoadOblivious one (round-robin) reads none, an empty read set. Either
// makes this two-level soft-sync protocol safe: (1) run every node in
// parallel to B = min(nextControl, tA+floorMin); (2) without tearing down the
// worker pool, replay the window serially as an "arrival micro-merge":
// buffered completions and the batched arrivals interleave in lockstep total
// order (arrivals before same-time node events), each Pick seeing exactly the
// counters lockstep would have shown it; (3) schedule each admission at its
// decision time plus floor(n) — at or after B, so the already-advanced engine
// accepts it — on a sequence slot the node reserved when its in-window run
// crossed the arrival's timestamp (sim.Engine.ReserveSeq), so same-time ties
// fire in the exact lockstep order. Node-local counters (in-flight, per-app,
// memory demand) defer to the merge along with the fleet effects; in-window
// drain checks read Node.liveLocal, which counts the buffered completions.
//
// Final windows. Once the stream is exhausted, the run must stop at the
// exact completion that resolves the last request — lockstep checks done()
// before every event, leaving residual events (timeslice timers and the
// like) unfired. A final window runs two passes: pass one lets every node
// with live work drain (stopping the moment its own in-flight count hits
// zero) or hit the bound; if everyone drained, the global finish is
// T* = max over nodes of their last completion time, resolved by node k,
// the highest index finishing at T*. Pass two then replays exactly the
// residual events lockstep would have fired before that completion: nodes
// below k run through T*, nodes above k run strictly before T*, node k
// stays put. If some node was still busy at the bound, no global finish
// happened in the window and everyone simply tops up to the bound.
//
// Everything else runs lockstep: a dispatcher with neither contract (or a
// Lookahead read set naming an unknown StateRead) would have to hard-sync at
// every arrival, a fleet whose dispatch floor is zero has no lookahead to
// spend, and the resilience layer couples nodes at event granularity — a
// completion there resolves hedges on other nodes, feeds breakers and
// re-dispatches queued work immediately (see DESIGN.md).
package cluster

import (
	"repro/internal/sim"
)

// winEv is one completion buffered inside a parallel window: everything the
// merge needs to replay the completion's effects — the node's own counters
// as much as the fleet's — in lockstep order. Per-node buffers are appended
// in engine firing order, so (at, node index, buffer position) reproduces
// the lockstep total order.
type winEv struct {
	at         sim.Time
	class, app int
	exec       sim.Time
}

// batchEnt is one arrival batched into a lookahead window, awaiting its
// dispatch decision in the micro-merge.
type batchEnt struct {
	i  int // arrival index
	at sim.Time
}

// LoadOblivious marks a Dispatcher whose Pick and hooks depend only on the
// dispatcher's own internal state and the eligible-set size — never on node
// load or completion feedback. The windowed executor treats it as a
// Lookahead with an empty read set: the micro-merge has nothing to rebuild
// for its Pick. Round-robin qualifies; any policy reading Node.InFlight or
// observing Completed does not.
type LoadOblivious interface {
	// LoadObliviousDispatch is a marker; implementations do nothing.
	LoadObliviousDispatch()
}

// windowBound returns the conservative horizon every window respects: the
// next control event or MaxSimTime, whichever comes first. Events strictly
// before the bound are safe to run node-locally once the arrivals before it
// are accounted for.
func (c *Cluster) windowBound() sim.Time {
	bound := c.rc.MaxSimTime + 1
	if c.ctlHas && c.ctlAt < bound {
		bound = c.ctlAt
	}
	return bound
}

// lookBound returns the latency-floor lookahead horizon for a window whose
// earliest undispatched arrival is at tA: the next control event still
// hard-syncs, but the arrival itself does not — no placement decided in
// [tA, tA+floorMin) can land on any node engine before tA+floorMin.
func (c *Cluster) lookBound(tA sim.Time) sim.Time {
	return min(c.windowBound(), tA+c.floorMin)
}

// runLookahead executes one latency-floor lookahead window: batch the
// arrivals strictly before bound, run every node with pending events in
// parallel to the bound (reserving a sequence slot per batched arrival at
// each arrival-time crossing), then micro-merge the batch and the buffered
// completions serially in lockstep total order. Returns the node events
// fired.
func (c *Cluster) runLookahead(bound sim.Time) uint64 {
	for c.next < len(c.tr.Arrivals) {
		at := c.tr.Arrivals[c.next].At
		if at >= bound {
			break
		}
		c.batch = append(c.batch, batchEnt{i: c.next, at: at})
		c.next++
	}
	active := c.collectActive(bound)
	counts := c.stepCounts(len(active))
	c.fanOut(len(active), func(i int) {
		counts[i] = c.runNodeLook(active[i], bound)
	})
	return c.finishWindow(counts)
}

// runNodeLook fires node n's events strictly before bound, reserving one of
// the engine's sequence slots per batched arrival the moment the engine
// crosses that arrival's timestamp — the exact point lockstep stepping would
// have scheduled the admission, whose seq the reservation therefore
// captures. Every node reserves for every batched arrival (placement is not
// yet decided); unspent slots are harmless.
func (c *Cluster) runNodeLook(n *Node, bound sim.Time) uint64 {
	eng := n.Sys.Eng
	batch := c.batch
	if cap(n.resSeq) < len(batch) {
		n.resSeq = make([]uint64, len(batch))
	}
	n.resSeq = n.resSeq[:len(batch)]
	n.lookRes = true
	var steps uint64
	bp := 0
	for {
		t, ok := eng.Peek()
		for bp < len(batch) && (!ok || batch[bp].at <= t) {
			n.resSeq[bp] = eng.ReserveSeq()
			bp++
		}
		if !ok || t >= bound {
			break
		}
		eng.Step()
		steps++
	}
	for bp < len(batch) {
		n.resSeq[bp] = eng.ReserveSeq()
		bp++
	}
	return steps
}

// collectActive gathers the nodes with a pending event before bound into
// the per-window scratch.
func (c *Cluster) collectActive(bound sim.Time) []*Node {
	active := c.winActive[:0]
	for i, n := range c.Nodes {
		if c.hasNext[i] && c.nextAt[i] < bound {
			active = append(active, n)
		}
	}
	c.winActive = active
	return active
}

// finishWindow closes a window: re-cache the active nodes' engine peeks,
// merge, and total the per-node step counts.
func (c *Cluster) finishWindow(counts []uint64) uint64 {
	var steps uint64
	for i, n := range c.winActive {
		c.refresh(n.Index)
		steps += counts[i]
	}
	c.merge()
	return steps
}

// stepCounts returns the per-active-node step-count scratch, zeroed and
// sized to n — windows fire millions of times per run, so the buffer is
// reused rather than reallocated.
func (c *Cluster) stepCounts(n int) []uint64 {
	if cap(c.winCounts) < n {
		c.winCounts = make([]uint64, n)
	}
	c.winCounts = c.winCounts[:n]
	clear(c.winCounts)
	return c.winCounts
}

// fanOut runs fn(0..n-1) on the window pool, or inline when the pool is
// absent (Parallel <= 1) or the window touches a single node.
func (c *Cluster) fanOut(n int, fn func(int)) {
	if c.pool == nil || n < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	c.pool.Run(n, fn)
}

// runNodeTo fires node n's events strictly before bound. With fin non-nil
// (pass one of a final window) it also stops the moment the node's own
// in-flight population hits zero (liveLocal: completions buffered for the
// merge count), recording the draining completion's time in *fin.
func (c *Cluster) runNodeTo(n *Node, bound sim.Time, fin *sim.Time) uint64 {
	eng := n.Sys.Eng
	var steps uint64
	for {
		t, ok := eng.Peek()
		if !ok || t >= bound {
			break
		}
		eng.Step()
		steps++
		if fin != nil && n.liveLocal() == 0 {
			*fin = eng.Now()
			break
		}
	}
	return steps
}

// runFinal executes one window up to bound once the arrival stream is
// exhausted, so the run may end inside it: the completion resolving the last
// in-flight request must be the run's final fired event, exactly as
// lockstep's done()-before-every-event check guarantees. It collects the
// nodes with work before the bound, runs them (in parallel when a pool
// exists) and merges the buffered completions. Returns the node events
// fired.
func (c *Cluster) runFinal(bound sim.Time) uint64 {
	active := c.collectActive(bound)
	counts := c.stepCounts(len(active))
	if cap(c.finTimes) < len(active) {
		c.finTimes = make([]sim.Time, len(active))
	}
	fins := c.finTimes[:len(active)]
	// Pass one: nodes with live work drain or hit the bound. Nodes holding
	// only residual events wait — how far they may run depends on where the
	// global finish lands.
	c.fanOut(len(active), func(i int) {
		fins[i] = -1
		n := active[i]
		if n.liveLocal() == 0 {
			return
		}
		counts[i] = c.runNodeTo(n, bound, &fins[i])
	})
	totalIn := 0
	for _, n := range c.Nodes {
		totalIn += n.liveLocal()
	}
	if totalIn > 0 {
		// Some node is still busy at the bound (or holds work with no event
		// before it), so the run does not end in this window and every event
		// before the bound fires, exactly as lockstep with done() false.
		c.fanOut(len(active), func(i int) {
			counts[i] += c.runNodeTo(active[i], bound, nil)
		})
		return c.finishWindow(counts)
	}
	// The fleet drained: the run ends at T*, the latest per-node drain time,
	// resolved by the highest-index node finishing there. Replay the
	// residual events lockstep would still have fired: all of a lower-index
	// node's events at T* precede node k's resolving completion; a
	// higher-index node's events at T* never fire.
	tstar, k := sim.Time(-1), -1
	for i, n := range active {
		if fins[i] >= 0 && (fins[i] > tstar || (fins[i] == tstar && n.Index > k)) {
			tstar, k = fins[i], n.Index
		}
	}
	c.fanOut(len(active), func(i int) {
		n := active[i]
		switch {
		case n.Index < k:
			counts[i] += c.runNodeTo(n, tstar+1, nil)
		case n.Index > k:
			counts[i] += c.runNodeTo(n, tstar, nil)
		}
	})
	return c.finishWindow(counts)
}

// merge replays the window in lockstep total order: the batched lookahead
// arrivals (empty for final windows) and the completions buffered on the
// active nodes interleave by ascending time, an arrival before a same-time
// completion (lockstep fires arrivals before node events), completions tying
// by node index and each node's buffer already engine-ordered. Each Pick runs
// against exactly the counters lockstep would have shown it; each admission
// is scheduled at decision time + floor(n) on the sequence slot the chosen
// node reserved. The earliest window error (by time, then node index) is
// raised at its own place in that order, where lockstep would have stopped,
// so a failing run reports lockstep's error at any worker count. Finally it
// clears the window buffers, reservations and errors.
func (c *Cluster) merge() {
	var errN *Node
	for _, n := range c.winActive {
		if n.winErr != nil && (errN == nil || n.errAt < errN.errAt) {
			errN = n
		}
	}
	bp := 0
	for c.err == nil {
		var best *Node
		for _, n := range c.winActive {
			if n.winPos < len(n.winBuf) && (best == nil || n.winBuf[n.winPos].at < best.winBuf[best.winPos].at) {
				best = n
			}
		}
		if bp < len(c.batch) && (best == nil || c.batch[bp].at <= best.winBuf[best.winPos].at) {
			a := c.batch[bp]
			if errN != nil && errN.errAt < a.at {
				break
			}
			c.now = a.at
			c.place(a.i, a.at, bp)
			bp++
			continue
		}
		if best == nil || errN != nil && errN.failsBefore(best) {
			break
		}
		ev := &best.winBuf[best.winPos]
		best.winPos++
		c.now = ev.at
		c.complete(best, ev.class, ev.app, ev.exec)
	}
	if errN != nil {
		c.fail(errN.winErr)
	}
	c.batch = c.batch[:0]
	for _, n := range c.winActive {
		n.winBuf = n.winBuf[:0]
		n.winPos = 0
		n.lookRes = false
		n.winErr = nil
	}
}

// failsBefore reports whether n's window error fired before m's next
// buffered completion in lockstep order: earlier time, then lower node index,
// and on n itself the completions buffered before the error.
func (n *Node) failsBefore(m *Node) bool {
	ev := &m.winBuf[m.winPos]
	switch {
	case m == n:
		return n.errPos <= m.winPos
	case n.errAt != ev.at:
		return n.errAt < ev.at
	}
	return n.Index < m.Index
}
