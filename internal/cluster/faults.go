package cluster

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
	"repro/internal/sim"
)

// faultSeedTag namespaces the fault injector's RNG from the node jitter and
// dispatch streams; stragglerSeedTag further namespaces the per-incarnation
// straggler draws so adding or killing nodes never perturbs the kill
// schedule.
const (
	faultSeedTag     = 0xFA17
	stragglerSeedTag = 0x510
)

// FaultSpec parameterizes the seeded fault injector. Kills arrive as a
// Poisson process over the whole fleet: each kill picks a uniform Up victim
// (skipped when it would leave the fleet without an Up node), destroys the
// victim's in-flight requests (counted as lost work and re-dispatched as
// fresh admissions), and restarts the node after Downtime as a new
// incarnation with a fresh jitter seed. Incarnations independently roll the
// straggler die: a straggler serves every thread block SlowFactor times
// slower until it is killed again. JSON tags let a cluster topology file
// carry the plan (gpusim -cluster).
type FaultSpec struct {
	// Seed drives the injector (kill times, victims, straggler draws);
	// 0 derives one from the machine seed (Options.Seed at the repro facade).
	Seed uint64 `json:"seed,omitempty"`
	// KillRate is the mean node kills per simulated second (0 = no kills).
	KillRate float64 `json:"kill_rate,omitempty"`
	// Downtime is how long a killed node stays down. Default 500µs.
	Downtime sim.Time `json:"downtime,omitempty"`
	// StragglerFrac is the probability each node incarnation is a straggler.
	StragglerFrac float64 `json:"straggler_frac,omitempty"`
	// SlowFactor is the straggler service-time multiplier. Default 2.
	SlowFactor float64 `json:"slow_factor,omitempty"`
}

func (f FaultSpec) withDefaults() FaultSpec {
	if f.Downtime == 0 {
		f.Downtime = 500 * sim.Microsecond
	}
	if f.SlowFactor <= 0 {
		f.SlowFactor = 2
	}
	return f
}

// Validate checks the plan's shape. Negative downtimes are rejected rather
// than clamped: a topology file asking for time travel is a typo.
func (f FaultSpec) Validate() error {
	if f.KillRate < 0 || math.IsNaN(f.KillRate) || math.IsInf(f.KillRate, 0) {
		return fmt.Errorf("cluster: kill rate %v invalid", f.KillRate)
	}
	if f.Downtime < 0 {
		return fmt.Errorf("cluster: negative downtime %v", f.Downtime)
	}
	if f.StragglerFrac < 0 || f.StragglerFrac > 1 || math.IsNaN(f.StragglerFrac) {
		return fmt.Errorf("cluster: straggler fraction %v outside [0, 1]", f.StragglerFrac)
	}
	if f.SlowFactor < 0 || math.IsNaN(f.SlowFactor) || math.IsInf(f.SlowFactor, 0) {
		return fmt.Errorf("cluster: slow factor %v invalid", f.SlowFactor)
	}
	return nil
}

// stragglerFactor returns the service-time multiplier the straggler die
// assigns to one node incarnation. The draw depends only on the fault seed
// and the (index, incarnation) pair, never on event order.
func (c *Cluster) stragglerFactor(index, incarnation int) float64 {
	if c.faults == nil || c.faults.StragglerFrac <= 0 {
		return 1
	}
	r := rng.New(rng.SeedFrom(c.faults.Seed, stragglerSeedTag, uint64(index), uint64(incarnation)))
	if r.Float64() < c.faults.StragglerFrac {
		return c.faults.SlowFactor
	}
	return 1
}

// scheduleKill arms the next fleet kill on the control engine: exponential
// gaps give Poisson kill arrivals at KillRate.
func (c *Cluster) scheduleKill(from sim.Time) {
	gap := -math.Log(1-c.faultR.Float64()) / c.faults.KillRate // seconds
	at := from + sim.Time(gap*float64(sim.Second))
	if at <= from {
		at = from + 1
	}
	c.ctl.AtFunc(at, killEvent, c, 0)
	c.refreshCtl()
}

// killEvent and restartEvent are the closure-free control-engine callbacks
// of a kill and of the restart it schedules; both fire at the control
// engine's current time.
func killEvent(p any, _ int64) {
	c := p.(*Cluster)
	c.kill(c.ctl.Now())
}

func restartEvent(p any, _ int64) {
	n := p.(*Node)
	n.clu.restart(n, n.clu.ctl.Now())
}

// kill fires one kill event: pick a uniform Up victim (skipping the kill
// entirely when fewer than two nodes are Up, so the fleet always keeps
// serving) and chain-schedule the next one.
func (c *Cluster) kill(at sim.Time) {
	ups := c.ups[:0]
	for _, n := range c.Nodes {
		if n.state == NodeUp {
			ups = append(ups, n)
		}
	}
	c.ups = ups
	if len(ups) >= 2 {
		c.killNode(ups[c.faultR.Intn(len(ups))], at)
	}
	c.scheduleKill(at)
}

// killNode destroys one node: its machine vanishes mid-flight (pending engine
// events die with it), every in-flight request is counted lost and
// immediately re-dispatched as a fresh admission through the dispatcher, and
// a restart is scheduled after the configured downtime. The dead machine
// stays on the node as its spare, for the restart to reset in place.
func (c *Cluster) killNode(n *Node, at sim.Time) {
	c.kills++
	n.state = NodeDown
	n.upTime += at - n.upSince
	n.statsAcc.Accumulate(n.Sys.Exec.Stats())
	n.busyAcc += float64(n.Sys.Exec.Utilization(at) * float64(at))
	n.spare, n.Sys = n.Sys, nil
	c.hasNext[n.Index] = false
	// The memory ledger, wait queue and in-flight swap-ins die with the
	// machine (their engine events can no longer fire); spilled bytes whose
	// swap-in will never happen are accounted lost. The waiters themselves
	// are still in live, so the loss loop below re-dispatches them.
	n.memWipe(c)

	// Sort the in-flight ids so the loss order (and with it every
	// downstream dispatcher decision) is deterministic.
	ids := c.lostIDs[:0]
	for id := range n.live {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	c.lostIDs = ids
	if c.res != nil {
		// Resilient path: ghosts die quietly, live attempts take the retry
		// decision (backoff, budget) instead of an unconditional re-dispatch.
		c.killAttempts(n, ids, at)
	} else {
		for _, i := range ids {
			a := &c.tr.Arrivals[i]
			c.lose(n, a.Class)
			c.unbook(n, a.App)
			c.lostWork += at - n.live[i]
		}
		clear(n.live)
		for _, i := range ids {
			c.place(i, at, -1)
		}
	}

	c.ctl.AtFunc(at+c.faults.Downtime, restartEvent, n, 0)
	c.refreshCtl()
}

// restart brings a killed node back as a fresh incarnation: its machine is
// reset in place with a new jitter seed and a new straggler draw. Its SLO
// account and lifetime counters carry over — the node slot is the unit of
// accounting, not the incarnation.
func (c *Cluster) restart(n *Node, at sim.Time) {
	c.restarts++
	n.incarnation++
	if err := c.newSystem(n); err != nil {
		c.fail(fmt.Errorf("cluster: restarting node %d: %w", n.Index, err))
		return
	}
	n.state = NodeUp
	n.upSince = at
	c.refresh(n.Index)
	if c.res != nil {
		// A fresh incarnation starts with a clean breaker, and the restored
		// capacity may admit queued work.
		if c.breakers != nil {
			c.breakers[n.Index].Reset(at)
		}
		c.drainQueues(at)
	}
}
