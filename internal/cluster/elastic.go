package cluster

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// NodeState is a node's position in the elastic-fleet lifecycle.
type NodeState int

// Node lifecycle states. A node is born Up; the autoscaler moves it
// Up → Draining → Retired, the fault injector Up → Down → Up (a restart is a
// fresh machine incarnation). Retired nodes never come back — a later
// scale-up adds a new node slot instead.
const (
	// NodeUp serves dispatched requests.
	NodeUp NodeState = iota
	// NodeDraining takes no new requests but finishes its in-flight ones.
	NodeDraining
	// NodeDown was killed by the fault injector; its in-flight requests were
	// lost and re-dispatched. It restarts after the configured downtime.
	NodeDown
	// NodeRetired drained to empty and left the fleet for good.
	NodeRetired
)

// String names the state for reports.
func (s NodeState) String() string {
	switch s {
	case NodeUp:
		return "up"
	case NodeDraining:
		return "draining"
	case NodeDown:
		return "down"
	case NodeRetired:
		return "retired"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// StepConfig parameterizes the step autoscaler, the fleet's hysteresis
// policy. Every Interval it inspects the watched class's rolling window
// (completions since the last tick) and the fleet backlog: it adds Step
// nodes when any high-water signal fires (tail latency, miss rate or
// per-node backlog), gracefully drains Step Up nodes (least-loaded first)
// when the fleet idles below the low-water backlog, and otherwise holds. A
// cooldown suppresses actions too soon after the last one. The zero value of
// a threshold disables that signal. JSON tags let a cluster topology file
// carry the policy (gpusim -cluster).
type StepConfig struct {
	// Interval is the tick period. Default 250µs.
	Interval sim.Time `json:"interval,omitempty"`
	// Cooldown is the minimum time between two scale actions. Default
	// Interval.
	Cooldown sim.Time `json:"cooldown,omitempty"`
	// Min and Max bound the Up-node count. Defaults 1 and MaxNodes.
	Min int `json:"min,omitempty"`
	Max int `json:"max,omitempty"`
	// Step is the node-count delta per action. Default 1.
	Step int `json:"step,omitempty"`
	// Class is the trace class index whose window the thresholds watch.
	Class int `json:"class,omitempty"`
	// HighP99 scales up when the watched class's window completion-latency
	// p99 exceeds it.
	HighP99 sim.Time `json:"high_p99,omitempty"`
	// HighMiss scales up when the window deadline-miss fraction exceeds it.
	HighMiss float64 `json:"high_miss,omitempty"`
	// HighBacklog scales up when fleet in-flight exceeds HighBacklog per Up
	// node.
	HighBacklog int `json:"high_backlog,omitempty"`
	// LowBacklog scales down when fleet in-flight falls below LowBacklog per
	// Up node and no scale-up signal fires.
	LowBacklog int `json:"low_backlog,omitempty"`
}

func (c StepConfig) withDefaults() StepConfig {
	if c.Interval <= 0 {
		c.Interval = 250 * sim.Microsecond
	}
	if c.Cooldown <= 0 {
		c.Cooldown = c.Interval
	}
	if c.Min < 1 {
		c.Min = 1
	}
	if c.Max <= 0 {
		c.Max = MaxNodes
	}
	if c.Step < 1 {
		c.Step = 1
	}
	return c
}

// Validate checks the policy's shape (after defaulting).
func (c StepConfig) Validate() error {
	c = c.withDefaults()
	if c.Max < c.Min || c.Max > MaxNodes {
		return fmt.Errorf("cluster: autoscale bounds [%d, %d] invalid (max %d)", c.Min, c.Max, MaxNodes)
	}
	if c.Class < 0 {
		return fmt.Errorf("cluster: autoscale watches negative class %d", c.Class)
	}
	if c.HighP99 < 0 || c.HighMiss < 0 || c.HighMiss > 1 || c.HighBacklog < 0 || c.LowBacklog < 0 {
		return fmt.Errorf("cluster: autoscale thresholds out of range")
	}
	return nil
}

// scaler is the step autoscaler's state: its defaulted policy, the time of
// its last action, and the watched class's fleet-wide completions, misses
// and latency sketch as of the previous tick (the rolling window's
// baseline).
type scaler struct {
	StepConfig
	acted        bool
	last         sim.Time
	done, missed int
	lat, prevLat *metrics.Sketch
}

// decide applies the step rule at now to a fleet of up Up nodes holding
// inflight requests, given the watched class's completions, deadline misses
// and completion-latency p99 since the previous tick. It returns the number
// of nodes to add (positive) or drain (negative), zero to hold.
func (s *scaler) decide(now sim.Time, up, inflight, done, missed int, p99 sim.Time) int {
	if s.acted && now-s.last < s.Cooldown {
		return 0
	}
	switch {
	case s.HighP99 > 0 && p99 > s.HighP99,
		s.HighMiss > 0 && done > 0 && float64(missed)/float64(done) > s.HighMiss,
		s.HighBacklog > 0 && inflight > s.HighBacklog*up:
		if d := min(s.Step, s.Max-up); d > 0 {
			s.acted, s.last = true, now
			return d
		}
	case s.LowBacklog > 0 && inflight < s.LowBacklog*up:
		if d := min(s.Step, up-s.Min); d > 0 {
			s.acted, s.last = true, now
			return -d
		}
	}
	return 0
}

// --- cluster-side scaling machinery ----------------------------------------

// scheduleTick arms the next autoscaler tick on the control engine.
func (c *Cluster) scheduleTick(at sim.Time) {
	c.ctl.AtFunc(at, tickEvent, c, int64(at))
	c.refreshCtl()
}

// tickEvent is the control-engine callback of the autoscaler tick due at at.
func tickEvent(p any, at int64) { p.(*Cluster).tick(sim.Time(at)) }

// tick reads what the step rule needs from the fleet, applies its decision,
// and re-arms. Ticks run on the control engine, so they see every event
// strictly before at plus nothing at at. The watched class's window is the
// difference between its fleet-wide totals now and at the previous tick,
// computed only for the signals the policy enables.
func (c *Cluster) tick(at sim.Time) {
	s := c.asc
	up, inflight := 0, 0
	for _, n := range c.Nodes {
		if n.state == NodeUp {
			up++
		}
		inflight += n.InFlight()
	}
	var done, missed int
	var p99 sim.Time
	if cls := s.Class; cls < len(c.tr.Classes) {
		if s.HighMiss > 0 {
			for _, n := range c.Nodes {
				done += n.Acct.Classes[cls].Completed
				missed += n.Acct.Classes[cls].Missed
			}
			done, missed, s.done, s.missed = done-s.done, missed-s.missed, done, missed
		}
		if s.HighP99 > 0 {
			*s.lat = metrics.Sketch{}
			for _, n := range c.Nodes {
				s.lat.Merge(&n.Acct.Classes[cls].Latency)
			}
			p99 = s.lat.SinceQuantile(s.prevLat, 0.99)
			s.lat, s.prevLat = s.prevLat, s.lat
		}
	}
	switch d := s.decide(at, up, inflight, done, missed, p99); {
	case d > 0:
		c.scaleUp(d, at)
	case d < 0:
		c.drainDown(-d, at)
	}
	c.scheduleTick(at + s.Interval)
}

// scaleUp adds k fresh nodes to the fleet at time at. New nodes use the
// homogeneous base machine config — capacity added by the autoscaler is
// whatever the provider hands out, not a replica of a hand-placed
// heterogeneous box.
func (c *Cluster) scaleUp(k int, at sim.Time) {
	for j := 0; j < k && len(c.Nodes) < MaxNodes; j++ {
		if err := c.addNode(c.addCfg, c.addScale, at); err != nil {
			c.fail(fmt.Errorf("cluster: scaling up node %d: %w", len(c.Nodes), err))
			return
		}
		c.scaleUps++
	}
	if c.res != nil {
		c.drainQueues(at)
	}
}

// drainDown gracefully removes k Up nodes: each victim (the least-loaded Up
// node, ties to the highest index so the newest capacity leaves first) stops
// receiving dispatches and retires once its in-flight requests finish. At
// least one Up node always remains.
func (c *Cluster) drainDown(k int, at sim.Time) {
	for j := 0; j < k; j++ {
		var victim *Node
		ups := 0
		for _, n := range c.Nodes {
			if n.state != NodeUp {
				continue
			}
			ups++
			if victim == nil || n.InFlight() < victim.InFlight() ||
				(n.InFlight() == victim.InFlight() && n.Index > victim.Index) {
				victim = n
			}
		}
		if victim == nil || ups <= 1 {
			return
		}
		victim.state = NodeDraining
		c.drains++
		if victim.InFlight() == 0 {
			c.retire(victim, at)
		}
	}
}

// retire finalizes a drained node: it leaves the fleet and stops accruing
// node-seconds.
func (c *Cluster) retire(n *Node, at sim.Time) {
	n.state = NodeRetired
	n.upTime += at - n.upSince
}
