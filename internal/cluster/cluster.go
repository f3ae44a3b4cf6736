// Package cluster lifts the simulator from one machine to a fleet: a Node
// wraps one assembled system.System (its own event engine, context table and
// SLO account) and a Cluster runs N nodes in deterministic lockstep, feeding
// them one shared open-system arrival stream through a pluggable Dispatcher.
//
// The lockstep rule makes a cluster run a pure function of (trace, config):
// the cluster repeatedly fires the globally earliest pending event across
// the control engine, the arrival stream and all per-node engines, breaking
// timestamp ties in that order (node events tie-break by node index). No
// goroutines are involved, so results are byte-identical on any machine and
// at any experiment-grid worker count.
//
// The fleet is elastic and faulty — deterministically. A control engine owned
// by the cluster carries the events that change the fleet itself: autoscaler
// ticks (the step autoscaler adds nodes and gracefully drains them from
// rolling SLO feedback), seeded node kills (in-flight requests are lost and
// re-dispatched, the node restarts after a downtime as a fresh incarnation,
// possibly a straggler), and the restarts those kills schedule. With no
// autoscaler and no faults the control engine stays empty and the run
// reduces exactly to the fixed-fleet lockstep.
//
// The placement decision interacts with the per-GPU preemption mechanism: a
// dispatcher that lets queues skew creates exactly the head-of-line blocking
// preemption exists to fix, so the package ships several deterministic
// policies (round-robin, join-shortest-queue, predicted-backlog least-loaded,
// class-affinity, seeded power-of-two-choices) to sweep that axis.
package cluster

import (
	"cmp"
	"fmt"

	"repro/internal/arrivals"
	"repro/internal/core"
	"repro/internal/gmem"
	"repro/internal/metrics"
	"repro/internal/preempt"
	"repro/internal/proc"
	"repro/internal/resilience"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"
)

// nodeSeedTag namespaces the per-node seed derivation, so node i's jitter
// stream differs both from other nodes and from a single-machine run at the
// same base seed.
const nodeSeedTag = 0xC105

// maxEvents is the runaway guard: a run stops, keeping what ran, after this
// many control and node events (windowed runs check it between windows).
const maxEvents = 2e9

// RunConfig parameterizes a cluster simulation.
type RunConfig struct {
	// Sys is the per-node machine configuration; every node is one replica
	// of it unless NodeTypes overrides it. Each node derives its own jitter
	// seed from Sys.Seed and its index. When Sys.ContextCapacity is zero it
	// is sized to the arrival count so admission never fails on any
	// placement.
	Sys system.Config
	// Nodes is the number of replicated machines (default 1). With NodeTypes
	// set it must be zero or equal the types' total count.
	Nodes int
	// NodeTypes optionally builds a heterogeneous initial fleet: the types
	// expand in order to the starting nodes, each overriding pieces of Sys.
	NodeTypes []NodeType
	// Dispatcher places each arrival on a node. Default: round-robin.
	// Dispatchers are stateful; do not share one value across concurrent
	// runs.
	Dispatcher Dispatcher
	// Autoscale, when non-nil, resizes the fleet from rolling SLO feedback
	// with the step autoscaler; zero fields take their defaults.
	Autoscale *StepConfig
	// Faults, when non-nil, is the seeded chaos plan: node kills, restarts
	// and stragglers.
	Faults *FaultSpec
	// Resilience, when non-nil and armed, wraps every request in the
	// per-request lifecycle manager: attempt timeouts, budgeted
	// backoff-with-jitter retries, hedged requests, per-node circuit
	// breakers and admission-control load shedding. A nil or zero-valued
	// spec leaves the run bit-for-bit on the plain elastic-fleet path.
	Resilience *resilience.Spec
	// Swap switches oversubscribed nodes from FIFO admission blocking to
	// host swap: contexts that do not fit spill to the host over the node's
	// PCIe link and are proactively swapped back in as residency frees.
	Swap bool
	// Policy builds each node's scheduling policy from the class count.
	Policy func(nClasses int) core.Policy
	// Mechanism builds each node's preemption mechanism (nil = none).
	Mechanism func() core.Mechanism
	// MaxSimTime aborts the simulation at this virtual time (0 = 120s).
	MaxSimTime sim.Time
	// Parallel selects the parallel-window executor on this many workers
	// (see Result.Executor); 0 keeps the lockstep reference. Windows need
	// the latency-floor lookahead, so three kinds of run stay lockstep
	// whatever the value: a dispatcher that is neither LoadOblivious (an
	// empty read set) nor a Lookahead with a known read set, a fleet whose
	// dispatch floor is zero, and a run with the resilience layer armed,
	// whose cross-node completion coupling (hedge cancellation, breaker
	// feedback) shrinks the safe lookahead to zero (see DESIGN.md).
	// Cluster.Executor reports which loop runs.
	Parallel int
	// Warmth, when non-nil, warm-starts the dispatcher from a snapshot of a
	// previously drained fleet (see Cluster.Warmth), so a measurement run
	// starts with learned predictor state instead of cold priors. The
	// dispatcher policy must match the snapshot's.
	Warmth *Warmth
}

func (rc *RunConfig) defaults() {
	if rc.Nodes <= 0 && len(rc.NodeTypes) == 0 {
		rc.Nodes = 1
	}
	if rc.Parallel < 0 {
		rc.Parallel = 0
	}
	if rc.Dispatcher == nil {
		rc.Dispatcher = NewRoundRobin()
	}
	if rc.MaxSimTime <= 0 {
		rc.MaxSimTime = 120 * sim.Second
	}
	if rc.Mechanism == nil {
		rc.Mechanism = func() core.Mechanism { return preempt.None{} }
	}
}

// Node is one machine slot of the cluster: an assembled system with its own
// event engine, context table and streaming SLO account, plus its lifecycle
// state. A kill ends the machine's incarnation but not the slot — the SLO
// account and counters span incarnations. Dispatchers read nodes through the
// accessor methods; everything else is maintained by the Cluster.
type Node struct {
	// Index is the node's position in the cluster (the timestamp tie-break).
	Index int
	// Sys is the node's assembled machine (nil while the node is down).
	Sys *system.System
	// spare is the machine a kill left behind while the node is down; the
	// restart resets it in place for the next incarnation (see newSystem).
	spare *system.System
	// adm is the machine's admission desk: it recycles each finished
	// request's context, process and record for the node's next admission.
	// A restart resets it with the machine, so every incarnation of the slot
	// reuses the records the earlier ones grew.
	adm *arrivals.Admitter
	// Acct is the node's per-class SLO accounting.
	Acct *metrics.SLOAccount

	state       NodeState
	incarnation int
	baseCfg     system.Config // machine config of every incarnation (seed/scale vary)
	baseScale   float64       // configured service-time scale (NodeType.SlowFactor)
	timeScale   float64       // effective scale of the current incarnation
	upSince     sim.Time
	upTime      sim.Time
	busyAcc     float64 // SM-busy virtual time of dead incarnations
	statsAcc    core.Stats

	admitted, finished, lost int
	inflightByApp            []int
	// live maps every request physically occupying the node to its dispatch
	// time: arrival indices on the plain path, attempt ids with the
	// resilience layer armed (abandoned ghosts included). A kill loses
	// exactly these.
	live map[int]sim.Time

	// Device-memory state (see memory.go). The ledger and queues belong to
	// the incarnation and die with a kill; hbm, memDemand and the swap
	// counters belong to the slot and persist.
	hbm       int64         // device-memory capacity (bytes)
	memDemand int64         // Σ working sets of placed-but-unresolved requests
	mem       *gmem.Manager // resident working-set ledger (nil while down)
	memQ      []int         // arrival indices waiting for residency, in order
	stagedB   int64         // Σ working sets of in-flight swap-ins

	spills, swapIns              int   // swap-outs / completed swap-ins
	swapOutB, swapInB, swapLostB int64 // spilled / restored / kill-destroyed bytes

	// Resilient-mode physical bookkeeping. An abandoned attempt (timed out
	// or hedge loser) leaves the SLO-visible population immediately but its
	// work keeps draining on the node as a ghost (it stays in live);
	// ghostDone counts abandoned attempts that resolved here (ghost
	// completions plus pre-start cancellations) and ghostLost abandoned
	// attempts destroyed with a kill.
	ghostDone, ghostLost int

	// clu points back at the owning cluster so engine callbacks can be
	// closure-free (sim.Func with the node as context); floor is the node's
	// dispatch-path latency floor — every admission placed on this node lands
	// on its engine floor later than the dispatch decision (see place).
	clu   *Cluster
	floor sim.Time

	// Parallel-window scratch (see parallel.go). Inside a window only the
	// owning worker touches these; the merge at the window boundary drains
	// them on the cluster goroutine.
	winBuf  []winEv  // completions buffered during the current window
	winPos  int      // merge cursor into winBuf
	winErr  error    // first admission error raised inside a window
	errAt   sim.Time // engine time of winErr
	errPos  int      // len(winBuf) when winErr was raised
	resSeq  []uint64 // lookahead windows: per-batch-arrival reserved seq slots
	lookRes bool     // node reserved seq slots in the current lookahead window
}

// InFlight returns the node's physical occupancy (attempts dispatched but
// not yet resolved, abandoned ghosts included) — the queue length
// join-shortest-queue minimizes. Without the resilience layer the ghost
// counters stay zero and this is the classic admitted − finished − lost.
func (n *Node) InFlight() int {
	return n.admitted - n.finished - n.lost - n.ghostDone - n.ghostLost
}

// liveLocal is the node's in-flight population as seen from inside a
// parallel window: completions buffered for the boundary merge have already
// happened on this engine even though the dispatcher-visible counters only
// move at replay. Outside a window the buffer is empty and this equals
// InFlight.
func (n *Node) liveLocal() int {
	return n.InFlight() - (len(n.winBuf) - n.winPos)
}

// NodeResult reports one node slot's outcome.
type NodeResult struct {
	// Classes holds the node's per-class SLO accounting, in trace class
	// order.
	Classes []metrics.ClassSLO
	// Admitted counts dispatch attempts placed on the node; Completed counts
	// attempts that finished there; Lost counts live attempts destroyed by
	// kills of this node; InFlight is the node's live outstanding population
	// at the end (abandoned ghosts excluded); Missed counts completed
	// requests that blew their class deadline.
	Admitted, Completed, Lost, InFlight, Missed int
	// HBM is the node's device-memory capacity. Spills counts requests whose
	// working set did not fit at admission and swapped out to the host, and
	// SwapIns the completed swap-back-ins (both zero with Swap off — blocked
	// requests just wait); SwapOutBytes/SwapInBytes/SwapLostBytes are the
	// matching byte flows (lost = destroyed by kills before the swap-in).
	HBM                                      int64
	Spills, SwapIns                          int
	SwapOutBytes, SwapInBytes, SwapLostBytes int64
	// State is the node's lifecycle state at the end of the run.
	State NodeState
	// Incarnations counts the machines that occupied this slot (1 + kills
	// survived).
	Incarnations int
	// TimeScale is the final incarnation's service-time multiplier.
	TimeScale float64
	// UpTime is how long the slot was Up or Draining.
	UpTime sim.Time
	// Utilization is the node's SM busy fraction over the cluster run,
	// summed across incarnations.
	Utilization float64
	// Stats accumulates the execution-engine counters over all incarnations.
	Stats core.Stats
}

// Result reports a completed cluster simulation: the fleet-wide rollup plus
// every node slot's individual outcome.
type Result struct {
	// Dispatcher names the placement policy that produced this result.
	Dispatcher string
	// Autoscaler names the scaling policy ("" = fixed fleet).
	Autoscaler string
	// Executor names the execution strategy the run used.
	// ExecutorLockstep, the reference, steps the fleet one event at a time:
	// per-node engines and the control engine merged by timestamp.
	// ExecutorParallelWindow runs the node engines independently inside
	// conservative parallel-in-time windows on RunConfig.Parallel workers,
	// with a deterministic merge at every window boundary. Both produce
	// byte-identical results at any worker count, so this field only reports
	// which one ran; RunConfig.Parallel lists when a parallel request falls
	// back to lockstep.
	Executor string
	// Nodes lists per-node outcomes, in node-index order.
	Nodes []NodeResult
	// Classes is the cluster rollup of the per-node SLO accounts (counters
	// summed, latency sketches merged bucket-wise).
	Classes []metrics.ClassSLO
	// Admitted == Completed + Lost + TimedOut + Canceled + InFlight across
	// the fleet (conservation; the last two are zero without the resilience
	// layer). A request re-dispatched after a kill or timeout counts as a
	// new admission, so Admitted counts attempts, not unique requests.
	Admitted, Completed, Lost, InFlight, Missed int
	// EndTime is the virtual time the simulation stopped.
	EndTime sim.Time
	// Utilization is the mean SM busy fraction across node slots.
	Utilization float64
	// Goodput is fleet-wide SLO-compliant completions per simulated second.
	Goodput float64
	// NodeSeconds is the capacity the run consumed: total Up/Draining node
	// time in simulated seconds — the cost axis autoscaling trades against
	// SLO attainment.
	NodeSeconds float64
	// LostWork is the in-flight virtual time destroyed by kills.
	LostWork sim.Time
	// Spills/SwapIns and the swap byte flows sum the per-node swap activity
	// (all zero with Swap off and with every working set resident).
	Spills, SwapIns                          int
	SwapOutBytes, SwapInBytes, SwapLostBytes int64
	// ScaleUps/Drains/Kills/Restarts count control-plane events.
	ScaleUps, Drains, Kills, Restarts int
	// Stats sums the execution-engine counters over all nodes.
	Stats core.Stats

	// Request-lifecycle ledger, filled only when the resilience layer is
	// armed (all zero otherwise). Requests counts the offered arrivals;
	// every one resolves as ReqCompleted, Dropped (retries or budget
	// exhausted), Shed (refused by admission control), or remains in
	// ReqInFlight (active or queued) at the end.
	Requests, ReqCompleted, Dropped, Shed, ReqInFlight int
	// TimedOut and Canceled count abandoned attempts; Retries and Hedges
	// count re-dispatched and hedged attempts; Rejected counts attempts a
	// node refused at admission (context table full, counted in Lost);
	// BreakerTrips counts circuit breakers opening.
	TimedOut, Canceled, Retries, Hedges, Rejected, BreakerTrips int
}

// Cluster runs an elastic fleet deterministically over one arrival stream, on
// either executor (see Result.Executor). Build one with New and drive it with
// Run; a Cluster is single-use.
type Cluster struct {
	Nodes []*Node

	tr                       *trace.ArrivalTrace
	rc                       RunConfig
	ws                       []int64 // per-app working set (trace.App.WorkingSetBytes)
	swapOn                   bool
	disp                     Dispatcher
	next                     int // next undispatched arrival
	admitted, finished, lost int
	now                      sim.Time
	err                      error
	ran                      bool

	// ctl is the control engine: fleet-mutating events (autoscaler ticks,
	// kills, restarts) fire here, merged into the lockstep loop ahead of
	// same-timestamp arrivals and node events.
	ctl    *sim.Engine
	ctlAt  sim.Time
	ctlHas bool

	asc    *scaler // nil = fixed fleet
	faults *FaultSpec
	faultR *rng.Source

	addCfg   system.Config // machine config for autoscaler-added nodes
	addScale float64

	lostWork                          sim.Time
	scaleUps, drains, kills, restarts int

	// Request-lifecycle manager state (nil res = plain elastic fleet).
	res         *resilience.Spec
	resSeed     uint64
	reqs        []reqRec                 // per-arrival request ledger
	atts        []attRec                 // append-only attempt ledger
	budgets     []resilience.TokenBucket // per-class retry budgets
	breakers    []resilience.Breaker     // per node slot
	hedgeLat    []metrics.Sketch         // per-class winning completion latency
	queues      [][]int                  // per-class admission queues (arrival indices)
	liveReq     []int                    // per-class launched-and-unresolved requests
	shedByClass []int
	maxPrio     int // highest class priority (the rt tier, exempt from shedding)

	reqDone, dropped, shedCount int
	retries, hedgeCount         int
	rejected                    int

	eligible []*Node // dispatch scratch: current Up nodes
	ups      []*Node // kill scratch: the Up nodes a kill picks from
	lostIDs  []int   // kill scratch: the dead node's sorted in-flight ids

	// Parallel-window execution state (zero when the lockstep reference
	// runs; see parallel.go).
	parOn      bool
	parWorkers int
	pool       *runner.Pool
	floorMin   sim.Time   // min dispatch floor over every possible target node
	winActive  []*Node    // per-window scratch: nodes with work in the window
	batch      []batchEnt // lookahead scratch: the arrivals inside the window
	winCounts  []uint64   // per-window scratch: per-active-node step counts
	finTimes   []sim.Time // final-window scratch: per-active-node drain times

	// nextAt/hasNext cache each node engine's next event timestamp. Node
	// engines are isolated — an event on node i can only schedule on node i,
	// and a dispatch touches only the chosen node — so the lockstep loop
	// refreshes exactly one entry per event instead of re-peeking every
	// engine.
	nextAt  []sim.Time
	hasNext []bool
}

// refresh re-caches node i's next pending event time.
func (c *Cluster) refresh(i int) {
	if c.Nodes[i].Sys == nil {
		c.nextAt[i], c.hasNext[i] = 0, false
		return
	}
	c.nextAt[i], c.hasNext[i] = c.Nodes[i].Sys.Eng.Peek()
}

// refreshCtl re-caches the control engine's next pending event time.
func (c *Cluster) refreshCtl() {
	c.ctlAt, c.ctlHas = c.ctl.Peek()
}

// nodeSeed derives one incarnation's jitter seed. Incarnation 0 uses the
// two-coordinate derivation of the fixed-fleet era, so fault-free runs stay
// byte-identical with it.
func nodeSeed(base uint64, index, incarnation int) uint64 {
	if incarnation == 0 {
		return rng.SeedFrom(base, nodeSeedTag, uint64(index))
	}
	return rng.SeedFrom(base, nodeSeedTag, uint64(index), uint64(incarnation))
}

// newSystem (re)builds a node's machine for its current incarnation: fresh
// policy and mechanism instances, an incarnation-specific jitter seed, and
// the straggler die rolled into the service-time scale. A restarted node
// resets the machine and admission desk its last incarnation left behind
// instead of building new ones; a reset machine runs exactly as a fresh one
// (system.System.Reset), so only the allocations differ.
func (c *Cluster) newSystem(n *Node) error {
	cfg := n.baseCfg
	cfg.Seed = nodeSeed(c.rc.Sys.Seed, n.Index, n.incarnation)
	n.timeScale = n.baseScale * c.stragglerFactor(n.Index, n.incarnation)
	cfg.TimeScale = n.timeScale
	pol, mech := c.rc.Policy(len(c.tr.Classes)), c.rc.Mechanism()
	if sys := n.spare; sys != nil {
		if err := sys.Reset(cfg, pol, mech); err != nil {
			return err
		}
		n.Sys, n.spare = sys, nil
		n.adm.Reset()
		return nil
	}
	sys, err := system.New(cfg, pol, mech)
	if err != nil {
		return err
	}
	n.Sys = sys
	onRun := n.runDone
	if c.res != nil {
		onRun = n.attDone
	}
	n.adm = arrivals.NewAdmitter(sys, c.tr, onRun)
	return nil
}

// addNode appends one Up node slot built from machine config cfg at
// service-time scale, with its memory ledger, first incarnation, next-event
// cache entry and (with the resilience layer armed) breaker.
func (c *Cluster) addNode(cfg system.Config, scale float64, upSince sim.Time) error {
	n := &Node{
		Index:         len(c.Nodes),
		Acct:          metrics.NewSLOAccount(c.tr.Classes),
		inflightByApp: make([]int, len(c.tr.Apps)),
		live:          make(map[int]sim.Time),
		baseCfg:       cfg,
		baseScale:     scale,
		state:         NodeUp,
		upSince:       upSince,
		hbm:           cfg.GPU.MemSize,
		clu:           c,
		floor:         cfg.PCIe.DispatchFloor(),
	}
	n.memInit()
	if err := c.newSystem(n); err != nil {
		return err
	}
	c.Nodes = append(c.Nodes, n)
	c.nextAt = append(c.nextAt, 0)
	c.hasNext = append(c.hasNext, false)
	if c.breakers != nil {
		c.breakers = append(c.breakers, resilience.NewBreaker(*c.res.Breaker))
	}
	return nil
}

// New validates the configuration and assembles the cluster's starting nodes.
// Each node gets its own policy and mechanism instance from the config's
// factories and a jitter seed derived from its index.
func New(tr *trace.ArrivalTrace, rc RunConfig) (*Cluster, error) {
	rc.defaults()
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if rc.Policy == nil {
		return nil, fmt.Errorf("cluster: no policy factory")
	}
	// The per-node machine configs: NodeTypes expand in order, or Nodes
	// homogeneous replicas of Sys.
	type nodeCfg struct {
		cfg   system.Config
		scale float64
	}
	base := rc.Sys
	if base.ContextCapacity <= 0 {
		base.ContextCapacity = arrivals.ContextCapacityFor(tr)
	}
	// Reject a bad base GPU (a non-positive Sys.GPU.MemSize, say) before the
	// working-set check below reads its capacity.
	if err := base.GPU.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	// core rejects a negative or NaN scale when the nodes are built.
	baseScale := cmp.Or(base.TimeScale, 1)
	base.TimeScale = 0
	var cfgs []nodeCfg
	if len(rc.NodeTypes) > 0 {
		total := 0
		for ti, t := range rc.NodeTypes {
			if err := t.Validate(); err != nil {
				return nil, fmt.Errorf("cluster: node type %d: %w", ti, err)
			}
			total += t.Count
			for j := 0; j < t.Count; j++ {
				cfgs = append(cfgs, nodeCfg{t.apply(base), baseScale * t.scale()})
			}
		}
		if rc.Nodes != 0 && rc.Nodes != total {
			return nil, fmt.Errorf("cluster: node count %d does not match node types' total %d", rc.Nodes, total)
		}
	} else {
		for i := 0; i < rc.Nodes; i++ {
			cfgs = append(cfgs, nodeCfg{base, baseScale})
		}
	}
	if len(cfgs) < 1 || len(cfgs) > MaxNodes {
		return nil, fmt.Errorf("cluster: node count %d out of range [1, %d]", len(cfgs), MaxNodes)
	}

	c := &Cluster{tr: tr, rc: rc, disp: rc.Dispatcher, ctl: sim.NewEngine(), swapOn: rc.Swap}
	// The per-app working sets every admission charges. A working set larger
	// than a node's whole HBM could never be admitted there — with strict
	// FIFO blocking that wedges the queue forever, so reject it up front.
	c.ws = make([]int64, len(tr.Apps))
	var maxWS int64
	for ai := range tr.Apps {
		c.ws[ai] = tr.Apps[ai].WorkingSetBytes()
		if c.ws[ai] > maxWS {
			maxWS = c.ws[ai]
		}
	}
	for i, nc := range cfgs {
		if maxWS > nc.cfg.GPU.MemSize {
			return nil, fmt.Errorf("cluster: working set %d bytes exceeds node %d's HBM %d",
				maxWS, i, nc.cfg.GPU.MemSize)
		}
	}
	if rc.Faults != nil {
		if err := rc.Faults.Validate(); err != nil {
			return nil, err
		}
		fs := rc.Faults.withDefaults()
		if fs.Seed == 0 {
			fs.Seed = rng.SeedFrom(rc.Sys.Seed, faultSeedTag)
		}
		c.faults = &fs
	}
	if rc.Autoscale != nil {
		if err := rc.Autoscale.Validate(); err != nil {
			return nil, err
		}
		c.asc = &scaler{StepConfig: rc.Autoscale.withDefaults(),
			lat: new(metrics.Sketch), prevLat: new(metrics.Sketch)}
	}
	if rc.Resilience.Enabled() {
		if err := rc.Resilience.Validate(); err != nil {
			return nil, err
		}
		c.initResilience()
	}
	for i, nc := range cfgs {
		if err := c.addNode(nc.cfg, nc.scale, 0); err != nil {
			return nil, fmt.Errorf("cluster: building node %d: %w", i, err)
		}
	}
	c.addCfg, c.addScale = base, baseScale
	c.disp.Reset(len(c.Nodes), len(tr.Classes), len(tr.Apps))
	if wa, ok := c.disp.(WorkingSetAware); ok {
		wa.SetWorkingSets(c.ws)
	}
	if rc.Warmth != nil {
		if err := rc.Warmth.apply(c.disp); err != nil {
			return nil, err
		}
	}
	if c.asc != nil {
		c.scheduleTick(c.asc.Interval)
	}
	if c.faults != nil && c.faults.KillRate > 0 {
		c.faultR = rng.New(c.faults.Seed)
		c.scheduleKill(0)
	}
	// The latency-floor lookahead bound must hold for every node an arrival
	// could land on — including nodes the autoscaler has yet to add, which
	// use addCfg.
	c.floorMin = c.addCfg.PCIe.DispatchFloor()
	for _, n := range c.Nodes {
		if n.floor < c.floorMin {
			c.floorMin = n.floor
		}
	}
	// Windows need the lookahead protocol: a positive floor and a Pick that
	// reads nothing the merge cannot rebuild (LoadOblivious reads nothing).
	// The resilience layer couples node completions across the fleet at
	// event granularity (hedge cancellation, breaker feedback), which
	// shrinks the safe lookahead to zero — it always runs on the lockstep
	// reference.
	_, oblivious := c.disp.(LoadOblivious)
	la, aware := c.disp.(Lookahead)
	c.parOn = rc.Parallel >= 1 && c.res == nil && c.floorMin > 0 &&
		(oblivious || aware && lookaheadReadsSafe(la.LookaheadReads()))
	c.parWorkers = rc.Parallel
	return c, nil
}

// Executor names reported by Result.Executor, which describes both.
const (
	ExecutorLockstep       = "lockstep"
	ExecutorParallelWindow = "parallel-window"
)

// Executor reports which execution strategy Run uses for this cluster (see
// Result.Executor).
func (c *Cluster) Executor() string {
	if c.parOn {
		return ExecutorParallelWindow
	}
	return ExecutorLockstep
}

// Run simulates the arrival stream across the configured fleet and reports
// per-node plus rolled-up SLO metrics. The simulation stops when every
// dispatch attempt has resolved — completed or lost to a kill — and the
// stream is exhausted (or at MaxSimTime, leaving the remainder in flight).
func Run(tr *trace.ArrivalTrace, rc RunConfig) (*Result, error) {
	c, err := New(tr, rc)
	if err != nil {
		return nil, err
	}
	return c.Run()
}

// Run drives the run loop to completion and assembles the result.
func (c *Cluster) Run() (*Result, error) {
	if c.ran {
		return nil, fmt.Errorf("cluster: Run called twice (a Cluster is single-use)")
	}
	c.ran = true
	if c.parOn && c.parWorkers > 1 {
		c.pool = runner.NewPool(c.parWorkers)
		defer c.pool.Close()
	}
	if err := c.loop(); err != nil {
		return nil, err
	}
	return c.result()
}

// done reports whether the run has nothing left to resolve: every arrival
// dispatched and every attempt completed or lost — or, with the resilience
// layer armed, every request settled (completed, dropped, or shed).
// Control-engine chains (ticks, kills) may still be pending — they stop
// mattering once the work is gone.
func (c *Cluster) done() bool {
	if c.next < len(c.tr.Arrivals) {
		return false
	}
	if c.res != nil {
		return c.resilienceDone()
	}
	return c.finished+c.lost == c.admitted
}

// loop is the deterministic run loop: fire the globally earliest pending
// event across the control engine, the arrival stream and the node engines.
// At equal timestamps control events run first (a scale-up or kill at t
// shapes the fleet the arrival at t sees), then arrivals, then node events
// (tie-break by node index) — so a completion at an arrival's own timestamp
// is not yet visible to the dispatcher. With the windowed executor on
// (parOn), every run of node and arrival events up to the next control event
// executes as one parallel window with a deterministic merge instead (see
// parallel.go): a lookahead window while arrivals remain, a final window once
// the stream is exhausted. Both paths only ever fire or test the earliest
// event, so the stops are shared.
func (c *Cluster) loop() error {
	var processed uint64
	for c.err == nil && !c.done() && processed < maxEvents {
		hasA, tA, ni, tN := c.peekNext()
		ctlFirst := c.ctlHas && (!hasA || c.ctlAt <= tA) && (ni < 0 || c.ctlAt <= tN)
		arrFirst := !ctlFirst && hasA && (ni < 0 || tA <= tN)
		first := tN
		if ctlFirst {
			first = c.ctlAt
		} else if arrFirst {
			first = tA
		}
		switch {
		case !c.ctlHas && !hasA && ni < 0:
			return c.err
		case first > c.rc.MaxSimTime:
			// The earliest pending event lies past MaxSimTime.
			c.now = c.rc.MaxSimTime
			return c.err
		case ctlFirst:
			c.now = c.ctlAt
			c.ctl.Step()
			c.refreshCtl()
			processed++
		case c.parOn && hasA:
			processed += c.runLookahead(c.lookBound(tA))
		case c.parOn:
			// The stream is exhausted: the run may end inside this window.
			processed += c.runFinal(c.windowBound())
		case arrFirst:
			c.now = tA
			c.dispatch(c.next)
			c.next++
		default:
			c.now = tN
			c.Nodes[ni].Sys.Eng.Step()
			c.refresh(ni)
			processed++
		}
	}
	return c.err
}

// peekNext returns the next undispatched arrival (hasA, its time tA) and the
// node holding the earliest pending engine event (ni < 0 when every engine
// is idle), ties to the lowest index.
func (c *Cluster) peekNext() (hasA bool, tA sim.Time, ni int, tN sim.Time) {
	if hasA = c.next < len(c.tr.Arrivals); hasA {
		tA = c.tr.Arrivals[c.next].At
	}
	ni = -1
	for i := range c.Nodes {
		if c.hasNext[i] && (ni < 0 || c.nextAt[i] < tN) {
			tN, ni = c.nextAt[i], i
		}
	}
	return hasA, tA, ni, tN
}

// dispatch places arrival i on a node at its arrival time — through
// admission control when the resilience layer is armed.
func (c *Cluster) dispatch(i int) {
	if c.res != nil {
		c.resArrive(i, c.tr.Arrivals[i].At)
		return
	}
	c.place(i, c.tr.Arrivals[i].At, -1)
}

// place runs the dispatch protocol for arrival i at time at (the arrival
// time, or the kill time for a re-dispatched attempt). Only Up nodes are
// eligible; the dispatcher picks a position in that filtered slice. The
// dispatcher-visible counters move immediately so a later arrival at the
// same timestamp already sees this request; the engine-side admission
// (context allocation, process start) fires as a node event at the decision
// time plus the node's dispatch-path latency floor — a dispatched request
// cannot touch the device before its command crosses the PCIe link, and
// modeling that delay is also what lets the parallel executor run nodes past
// an arrival (see parallel.go). In a lookahead merge bp is the arrival's
// batch position (-1 elsewhere): a chosen node that ran in the window
// reserved its admission's sequence slot there (an idle node's sequence
// counter already matches lockstep's, so a plain schedule is exact).
func (c *Cluster) place(i int, at sim.Time, bp int) {
	elig := c.eligible[:0]
	for _, n := range c.Nodes {
		if n.state == NodeUp {
			elig = append(elig, n)
		}
	}
	n := c.pickFrom(elig, i, at)
	if n == nil {
		return
	}
	c.book(n, i)
	n.live[i] = at
	if n.lookRes {
		n.Sys.Eng.AtSeqFunc(at+n.floor, n.resSeq[bp], admitEvent, n, int64(i))
	} else {
		n.Sys.Eng.AtFunc(at+n.floor, admitEvent, n, int64(i))
	}
	c.refresh(n.Index)
}

// admitEvent is the closure-free engine callback of a scheduled admission.
func admitEvent(p any, x int64) {
	n := p.(*Node)
	n.clu.admit(n, int(x))
}

// pickFrom runs the dispatcher over the eligible set elig for arrival i and
// returns the chosen node, or nil after recording the error.
func (c *Cluster) pickFrom(elig []*Node, i int, at sim.Time) *Node {
	c.eligible = elig
	if len(elig) == 0 {
		c.fail(fmt.Errorf("cluster: no Up node to dispatch request %d at %v", i, at))
		return nil
	}
	a := &c.tr.Arrivals[i]
	pi := c.disp.Pick(at, a.Class, a.App, elig)
	if pi < 0 || pi >= len(elig) {
		c.fail(fmt.Errorf("cluster: dispatcher %s picked position %d of %d for request %d",
			c.disp.Name(), pi, len(elig), i))
		return nil
	}
	return elig[pi]
}

// book applies the cluster- and dispatcher-visible bookkeeping of placing
// arrival i on node n, so a later arrival at the same timestamp already sees
// it: the admission counters, the per-app in-flight population, the memory
// demand, the SLO admission and the dispatcher's Dispatched hook.
func (c *Cluster) book(n *Node, i int) {
	a := &c.tr.Arrivals[i]
	n.admitted++
	c.admitted++
	n.inflightByApp[a.App]++
	n.memDemand += c.ws[a.App]
	n.Acct.Admit(a.Class)
	c.disp.Dispatched(n.Index, a.Class, a.App)
}

// unbook takes one resolved or removed request of app off node n's per-app
// in-flight population and memory demand.
func (c *Cluster) unbook(n *Node, app int) {
	n.inflightByApp[app]--
	n.memDemand -= c.ws[app]
}

// lose counts one live request of class destroyed or refused on node n.
func (c *Cluster) lose(n *Node, class int) {
	n.lost++
	c.lost++
	n.Acct.Lose(class)
}

// admit runs on the owning node's engine at the dispatch time. The request
// first charges its working set against the node's memory ledger; if it does
// not fit it waits (or swaps) and startRun fires later, when residency frees.
func (c *Cluster) admit(n *Node, i int) {
	if !c.memAdmit(n, i) {
		return
	}
	c.startRun(n, i)
}

// startRun starts arrival i's run on node n, memory already reserved: the
// node's admission desk places a fresh context and process, and completion
// (runDone) retires them on the owning node before the cluster and
// dispatcher bookkeeping updates. A draining node that empties retires.
func (c *Cluster) startRun(n *Node, i int) {
	if err := n.adm.Admit(i, i); err != nil {
		c.nodeFail(n, fmt.Errorf("cluster: admitting request %d on node %d: %w", i, n.Index, err))
	}
}

// runDone is the node's plain-path completion callback for arrival i, run
// on the node's engine after the request's context has retired.
func (n *Node) runDone(i int, rec proc.RunRecord) {
	c := n.clu
	a := &c.tr.Arrivals[i]
	exec := arrivals.Account(n.Acct, a, rec)
	delete(n.live, i)
	c.memRelease(n, i)
	if c.parOn {
		// Inside a window only engine-local state may move; every
		// dispatcher-visible counter (the node's in-flight population and
		// memory demand as much as the fleet counter, Completed feedback and
		// retirement) replays in deterministic merge order at the window
		// boundary, so a lookahead Pick mid-batch sees exactly the
		// completions lockstep would have shown it. In-window drain checks
		// read liveLocal, which counts this buffered entry.
		n.winBuf = append(n.winBuf, winEv{
			at: n.Sys.Eng.Now(), class: a.Class, app: a.App, exec: exec,
		})
		return
	}
	c.complete(n, a.Class, a.App, exec)
}

// complete applies a completion's node counters, the fleet counter, the
// dispatcher feedback and the drained-node retirement at c.now — inline on
// lockstep stepping, at its replay position in a window merge. The
// retirement check reads the same counters in both, because a Draining node
// receives no placements mid-window.
func (c *Cluster) complete(n *Node, class, app int, exec sim.Time) {
	n.finished++
	c.finished++
	c.unbook(n, app)
	c.disp.Completed(n.Index, class, app, exec)
	c.afterResolve(n)
}

func (c *Cluster) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// nodeFail records an error raised on a node's engine. Inside a parallel
// window it lands in the node's private slot (c.err is shared) with its
// engine time and buffer position; the merge raises the earliest one at its
// lockstep position, so failing runs abort with lockstep's error at any
// worker count.
func (c *Cluster) nodeFail(n *Node, err error) {
	if c.parOn {
		if n.winErr == nil {
			n.winErr, n.errAt, n.errPos = err, n.Sys.Eng.Now(), len(n.winBuf)
		}
		return
	}
	c.fail(err)
}

// result rolls the per-node accounts up into the fleet-wide report and
// cross-checks the conservation identity
// (admitted == completed + lost + in-flight, per node and fleet-wide).
func (c *Cluster) result() (*Result, error) {
	out := &Result{
		Dispatcher: c.disp.Name(),
		Executor:   c.Executor(),
		EndTime:    c.now,
		LostWork:   c.lostWork,
		ScaleUps:   c.scaleUps,
		Drains:     c.drains,
		Kills:      c.kills,
		Restarts:   c.restarts,
	}
	if c.asc != nil {
		out.Autoscaler = "step"
	}
	rollup := metrics.NewSLOAccount(c.tr.Classes)
	var admitted, finished, lost int
	for _, n := range c.Nodes {
		adm, done, missed := n.Acct.Totals()
		nl := n.Acct.LostTotal()
		if adm != n.admitted || done != n.finished || nl != n.lost {
			panic(fmt.Sprintf("cluster: node %d accounting drift: %d/%d admitted, %d/%d completed, %d/%d lost",
				n.Index, adm, n.admitted, done, n.finished, nl, n.lost))
		}
		c.memCheck(n)
		admitted += adm
		finished += done
		lost += nl
		if n.state == NodeUp || n.state == NodeDraining {
			n.upTime += out.EndTime - n.upSince
			n.upSince = out.EndTime
		}
		util := 0.0
		st := n.statsAcc
		if n.Sys != nil {
			util = n.Sys.Exec.Utilization(out.EndTime)
			st.Accumulate(n.Sys.Exec.Stats())
		}
		if out.EndTime > 0 {
			util += n.busyAcc / float64(out.EndTime)
		}
		nin := 0
		for ci := range n.Acct.Classes {
			nin += n.Acct.Classes[ci].InFlight()
		}
		out.Nodes = append(out.Nodes, NodeResult{
			Classes:       n.Acct.Classes,
			Admitted:      adm,
			Completed:     done,
			Lost:          nl,
			InFlight:      nin,
			Missed:        missed,
			HBM:           n.hbm,
			Spills:        n.spills,
			SwapIns:       n.swapIns,
			SwapOutBytes:  n.swapOutB,
			SwapInBytes:   n.swapInB,
			SwapLostBytes: n.swapLostB,
			State:         n.state,
			Incarnations:  n.incarnation + 1,
			TimeScale:     n.timeScale,
			UpTime:        n.upTime,
			Utilization:   util,
			Stats:         st,
		})
		out.Spills += n.spills
		out.SwapIns += n.swapIns
		out.SwapOutBytes += n.swapOutB
		out.SwapInBytes += n.swapInB
		out.SwapLostBytes += n.swapLostB
		out.Utilization += util
		out.NodeSeconds += n.upTime.Seconds()
		if err := rollup.Merge(n.Acct); err != nil {
			return nil, err
		}
		out.Stats.Accumulate(st)
	}
	if admitted != c.admitted || finished != c.finished || lost != c.lost {
		panic(fmt.Sprintf("cluster: accounting drift: %d/%d admitted, %d/%d completed, %d/%d lost",
			admitted, c.admitted, finished, c.finished, lost, c.lost))
	}
	out.Utilization /= float64(len(c.Nodes))
	out.Classes = rollup.Classes
	adm, done, missed := rollup.Totals()
	out.Admitted, out.Completed, out.Missed = adm, done, missed
	out.Lost = lost
	out.InFlight = adm - done - lost
	out.Goodput = rollup.Goodput(out.EndTime)
	if c.res != nil {
		// Shed requests never reached a node, so the per-node accounts carry
		// none; the rollup alone reports them. Everything else is summed from
		// the merged per-node classes so node sums always match the rollup.
		for ci := range out.Classes {
			cc := &out.Classes[ci]
			cc.Shed = c.shedByClass[ci]
			out.TimedOut += cc.TimedOut
			out.Canceled += cc.Canceled
		}
		out.InFlight -= out.TimedOut + out.Canceled
		out.Requests = len(c.tr.Arrivals)
		out.ReqCompleted = c.reqDone
		out.Dropped = c.dropped
		out.Shed = c.shedCount
		out.ReqInFlight = out.Requests - c.reqDone - c.dropped - c.shedCount
		out.Retries = c.retries
		out.Hedges = c.hedgeCount
		out.Rejected = c.rejected
		for i := range c.breakers {
			out.BreakerTrips += c.breakers[i].Trips()
		}
	}
	return out, nil
}
