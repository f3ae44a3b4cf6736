package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/resilience"
	"repro/internal/system"
)

// MaxNodes bounds the topology size: a guard against nonsense
// configurations, not a simulator limit.
const MaxNodes = 1024

// NodeType describes one slice of a heterogeneous fleet: Count nodes sharing
// hardware overrides of the base machine config. Zero-valued fields keep the
// base value.
type NodeType struct {
	// Count is how many nodes of this type the fleet starts with.
	Count int `json:"count"`
	// SMs overrides the GPU's SM count (0 = base config).
	SMs int `json:"sms,omitempty"`
	// PCIeGen overrides the PCIe generation, 1..5; each generation doubles
	// the transfer bandwidth of the previous one, with the base config's
	// bandwidth as generation 2 (0 = base config).
	PCIeGen int `json:"pcie_gen,omitempty"`
	// SlowFactor multiplies the type's service time — a permanently slow
	// hardware class, as opposed to the fault injector's per-incarnation
	// stragglers (0 = nominal speed).
	SlowFactor float64 `json:"slow_factor,omitempty"`
	// HBMBytes overrides the type's device-memory capacity, the budget each
	// node's working-set ledger enforces at admission (0 = the base
	// machine's, which RunConfig.HBM — Options.HBM at the repro facade — may
	// itself override).
	HBMBytes int64 `json:"hbm_bytes,omitempty"`
}

// Validate checks one node type's shape.
func (t NodeType) Validate() error {
	if t.Count < 1 {
		return fmt.Errorf("cluster: node type count %d must be positive", t.Count)
	}
	if t.SMs < 0 {
		return fmt.Errorf("cluster: negative SM count %d", t.SMs)
	}
	if t.PCIeGen < 0 || t.PCIeGen > 5 {
		return fmt.Errorf("cluster: PCIe generation %d outside [0, 5]", t.PCIeGen)
	}
	if t.SlowFactor < 0 || math.IsNaN(t.SlowFactor) || math.IsInf(t.SlowFactor, 0) {
		return fmt.Errorf("cluster: slow factor %v invalid", t.SlowFactor)
	}
	if t.HBMBytes < 0 {
		return fmt.Errorf("cluster: negative HBM size %d", t.HBMBytes)
	}
	return nil
}

// apply overlays the type's hardware overrides on a base machine config.
func (t NodeType) apply(base system.Config) system.Config {
	if t.SMs > 0 {
		base.GPU.NumSMs = t.SMs
	}
	if t.HBMBytes > 0 {
		base.GPU.MemSize = t.HBMBytes
	}
	if t.PCIeGen > 0 {
		// The base bandwidth is generation 2 (the default config's PCIe 2.0);
		// each generation doubles it.
		base.PCIe.Bandwidth = int64(float64(base.PCIe.Bandwidth) * math.Pow(2, float64(t.PCIeGen-2)))
	}
	return base
}

// scale returns the type's service-time multiplier (1 = nominal).
func (t NodeType) scale() float64 {
	if t.SlowFactor > 0 {
		return t.SlowFactor
	}
	return 1
}

// Config is a serializable cluster topology: how many replicated machines
// (or which heterogeneous node types), which dispatch policy feeds them, and
// the optional autoscaling, fault-injection and request-resilience plans.
// gpusim -cluster loads it from JSON; the file is that CLI's only way to set
// the three plans.
type Config struct {
	// Nodes is the number of replicated machines (1..MaxNodes). With
	// NodeTypes set it may be 0 (derived) or must equal their total count.
	Nodes int `json:"nodes"`
	// NodeTypes optionally describes a heterogeneous fleet; the types expand
	// in order to the starting nodes.
	NodeTypes []NodeType `json:"node_types,omitempty"`
	// Dispatch names the placement policy (see Kinds; empty = round-robin).
	Dispatch Kind `json:"dispatch,omitempty"`
	// Seed drives randomized dispatch policies (p2c); 0 = 1.
	Seed uint64 `json:"seed,omitempty"`
	// ContextCapacity overrides each node's context-table capacity
	// (0 = sized to the arrival count, as in RunConfig.Sys).
	ContextCapacity int `json:"context_capacity,omitempty"`
	// Autoscale, when present, enables the step autoscaler with this policy.
	Autoscale *StepConfig `json:"autoscale,omitempty"`
	// Faults, when present, is the seeded fault-injection plan.
	Faults *FaultSpec `json:"faults,omitempty"`
	// Resilience, when present, is the request-lifecycle plan: timeouts,
	// retry budgets, hedging, circuit breakers, load shedding.
	Resilience *resilience.Spec `json:"resilience,omitempty"`
}

// StartNodes returns the initial fleet size the topology describes.
func (c Config) StartNodes() int {
	if len(c.NodeTypes) == 0 {
		return c.Nodes
	}
	total := 0
	for _, t := range c.NodeTypes {
		total += t.Count
	}
	return total
}

// Validate checks the topology: node count in range, a known dispatch
// policy, and well-formed node-type, autoscale, fault and resilience
// stanzas.
func (c Config) Validate() error {
	for i, t := range c.NodeTypes {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("cluster: node type %d: %w", i, err)
		}
	}
	n := c.StartNodes()
	if n < 1 || n > MaxNodes {
		return fmt.Errorf("cluster: node count %d out of range [1, %d]", n, MaxNodes)
	}
	if len(c.NodeTypes) > 0 && c.Nodes != 0 && c.Nodes != n {
		return fmt.Errorf("cluster: node count %d does not match node types' total %d", c.Nodes, n)
	}
	if c.ContextCapacity < 0 {
		return fmt.Errorf("cluster: negative context capacity %d", c.ContextCapacity)
	}
	if _, err := NewDispatcher(c.Dispatch, 1); err != nil {
		return err
	}
	if c.Autoscale != nil {
		if err := c.Autoscale.Validate(); err != nil {
			return err
		}
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	if err := c.Resilience.Validate(); err != nil {
		return err
	}
	return nil
}

// ReadConfig parses and validates a cluster topology from JSON.
func ReadConfig(r io.Reader) (Config, error) {
	var c Config
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("cluster: decoding topology: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}
