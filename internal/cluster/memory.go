// Device-memory-aware admission.
//
// Every node owns a working-set ledger: a byte budget (Node.resident) capped
// at the node's HBM capacity (NodeType.HBMBytes, or else the base machine's
// Sys.GPU.MemSize). Each admitted request charges its application's working
// set (trace.App.WorkingSetBytes — the explicit override or the trace's
// total transfer bytes) against the budget for the lifetime of its run; a
// request whose working set does not fit waits instead of starting, which
// turns the fleet model from slot-limited into memory-limited.
//
// The ledger counts bytes, not addresses: the GPU translates every context
// through its own page table, so a working set never needs contiguous
// physical memory, and the memory-aware dispatcher already reasons in bytes
// (FreeHBM). A request fits exactly when resident + ws <= hbm, however the
// earlier releases were ordered.
//
// Two oversubscription disciplines:
//
//   - Admission blocking (Swap off): the node's memory queue is strict FIFO.
//     A request that does not fit — or arrives behind one that does not —
//     waits until the queue ahead of it has been admitted. The head-of-line
//     blocking is intentional: it is the cost the swap path exists to avoid,
//     and the -exp memory grid measures exactly that trade-off.
//
//   - Swap (Swap on): a request that does not fit is kept cold on the host —
//     its context state spills over the node's PCIe link (a D2H transfer
//     serialized with the node's normal traffic) and it joins the memory
//     queue. Whenever residency frees, the queue is rescanned first-fit in
//     arrival order: any waiter that now fits reserves its memory immediately
//     and is proactively swapped back in (an H2D transfer of its working
//     set); its run starts when the transfer lands. Swap trades PCIe traffic
//     and transfer latency for the elimination of head-of-line blocking.
//
// All of it is node-local — the ledger, the queue and the swap transfers live
// on the owning node's engine and DMA — so parallel-in-time windows stay
// valid: no new cross-node serialization points are introduced.
//
// The resilient path does not queue or swap: a request that does not fit is
// rejected at admission exactly like a full context table, and the request
// lifecycle manager (retry budgets, breakers) owns the queueing decision.
package cluster

import (
	"fmt"

	"repro/internal/pcie"
	"repro/internal/sim"
)

// FreeHBM returns the node's uncommitted device memory: HBM capacity minus
// the working sets of every placed-but-unresolved request (resident, waiting
// and swapping-in alike). It can be negative — that is the node's
// oversubscription debt — and it is the signal memory-aware dispatchers
// filter on.
func (n *Node) FreeHBM() int64 { return n.hbm - n.memDemand }

// wsOf returns arrival i's working set in bytes.
func (c *Cluster) wsOf(i int) int64 { return c.ws[c.tr.Arrivals[i].App] }

// memAdmit charges the working set of the request in live slot s against
// node n's ledger at the request's engine-side admission. It returns true
// when the run may start now; false parks the request in the node's memory
// queue (spilling it to the host first on the swap path).
func (c *Cluster) memAdmit(n *Node, s int) bool {
	i := n.live.at(s).id
	ws := c.wsOf(i)
	if ws == 0 {
		return true
	}
	if c.swapOn {
		if n.memReserve(ws) {
			return true
		}
		// Cold on the host: spilling the context state costs a D2H transfer
		// serialized on the node's link alongside its normal traffic.
		n.spills++
		n.swapOutB += ws
		_ = n.Sys.DMA.Submit(&pcie.Command{
			CtxID: -1, Name: "swap-out", Dir: pcie.DeviceToHost, Bytes: ws,
		})
		n.memQ = append(n.memQ, s)
		return false
	}
	// Blocking mode is strict FIFO: nobody overtakes the queue, even when
	// its working set would fit in the free bytes.
	if len(n.memQ) == 0 && n.memReserve(ws) {
		return true
	}
	n.memQ = append(n.memQ, s)
	return false
}

// memReserve charges ws bytes against the node's HBM budget. It fails,
// charging nothing, when they do not fit.
func (n *Node) memReserve(ws int64) bool {
	if n.resident+ws > n.hbm {
		return false
	}
	n.resident += ws
	return true
}

// memFree returns ws reserved bytes to the node's budget. A release of more
// than is resident is a leak in the ledger's callers, not a recoverable
// state.
func (n *Node) memFree(ws int64) {
	if ws > n.resident {
		panic(fmt.Sprintf("cluster: node %d releases %d bytes with %d resident", n.Index, ws, n.resident))
	}
	n.resident -= ws
}

// memRelease frees arrival i's residency when its run completes and lets the
// memory queue claim the freed bytes. Runs on the owning node's engine.
func (c *Cluster) memRelease(n *Node, i int) {
	if ws := c.wsOf(i); ws > 0 {
		n.memFree(ws)
		c.memDrain(n)
	}
}

// memDrain admits waiting requests into freed memory. Blocking mode admits
// from the head only (strict FIFO); swap mode rescans the whole queue
// first-fit in arrival order, and each admitted waiter swaps back in over
// PCIe before starting.
func (c *Cluster) memDrain(n *Node) {
	if !c.swapOn {
		for len(n.memQ) > 0 {
			s := n.memQ[0]
			if !n.memReserve(c.wsOf(n.live.at(s).id)) {
				return
			}
			n.memQ = n.memQ[1:]
			c.startRun(n, s)
		}
		n.memQ = nil
		return
	}
	kept := n.memQ[:0]
	for _, s := range n.memQ {
		ws := c.wsOf(n.live.at(s).id)
		if !n.memReserve(ws) {
			kept = append(kept, s)
			continue
		}
		// Reserved: proactively swap the waiter back in ahead of its turn.
		// The run starts when the H2D transfer lands.
		n.stagedB += ws
		_ = n.Sys.DMA.Submit(&pcie.Command{
			CtxID: -1, Name: "swap-in", Dir: pcie.HostToDevice, Bytes: ws,
			OnDone: func(sim.Time) { c.swapInDone(n, s, ws) },
		})
	}
	n.memQ = kept
}

// swapInDone fires on the node's engine when a waiter's working set finishes
// staging back into HBM: the swap-in is accounted and the run starts.
func (c *Cluster) swapInDone(n *Node, s int, ws int64) {
	n.stagedB -= ws
	n.swapIns++
	n.swapInB += ws
	c.startRun(n, s)
}

// memWipe destroys a node's memory state with its machine: spilled bytes
// whose swap-in will now never happen are counted lost, the queue is emptied
// and the staged bytes zeroed (their requests are re-dispatched by the kill
// path), and the budget is emptied for the next incarnation. The traffic
// counters persist — the slot, not the incarnation, is the unit of
// accounting.
func (n *Node) memWipe(c *Cluster) {
	n.swapLostB += c.memSpilledNow(n)
	n.memQ = n.memQ[:0]
	n.stagedB = 0
	n.resident = 0
}

// memSpilledNow returns the bytes currently cold on the host: queued waiters
// plus in-flight swap-ins. Zero with swap disabled (blocking-mode waiters
// never spilled).
func (c *Cluster) memSpilledNow(n *Node) int64 {
	if !c.swapOn {
		return 0
	}
	b := n.stagedB
	for _, s := range n.memQ {
		b += c.wsOf(n.live.at(s).id)
	}
	return b
}

// memCheck cross-checks the node's memory conservation identities at the end
// of a run: residency within capacity and zero on a node with nothing in
// flight (every reservation was released), the demand counter consistent
// with the per-app in-flight population, and every swapped-out byte either
// swapped back in, still cold on the host, or destroyed by a kill.
func (c *Cluster) memCheck(n *Node) {
	if n.resident < 0 || n.resident > n.hbm {
		panic(fmt.Sprintf("cluster: node %d resident %d outside HBM [0, %d]", n.Index, n.resident, n.hbm))
	}
	if n.InFlight() == 0 && n.resident != 0 {
		panic(fmt.Sprintf("cluster: node %d holds %d resident bytes with nothing in flight", n.Index, n.resident))
	}
	var want int64
	for a, k := range n.inflightByApp {
		want += int64(k) * c.ws[a]
	}
	if n.memDemand != want {
		panic(fmt.Sprintf("cluster: node %d memory demand drift: %d booked, %d in flight",
			n.Index, n.memDemand, want))
	}
	if spilled := c.memSpilledNow(n); n.swapOutB != n.swapInB+spilled+n.swapLostB {
		panic(fmt.Sprintf("cluster: node %d swap leak: %d out != %d in + %d spilled + %d lost",
			n.Index, n.swapOutB, n.swapInB, spilled, n.swapLostB))
	}
}
