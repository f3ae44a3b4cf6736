package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadClusterConfig fuzzes the topology JSON decoder: whatever the
// input, the decoder must never panic, and an accepted topology must
// validate, round-trip through json.Marshal, and build its dispatcher. The
// corpus covers the heterogeneous-node, autoscale and fault stanzas,
// including the decoder panics they once invited (null node-type entries,
// which now decode to a rejected zero count, and negative downtimes).
func FuzzReadClusterConfig(f *testing.F) {
	f.Add(`{"nodes": 4, "dispatch": "jsq"}`)
	f.Add(`{"nodes": 1}`)
	f.Add(`{"nodes": 8, "dispatch": "p2c", "seed": 42, "context_capacity": 16}`)
	f.Add(`{"nodes": 0}`)
	f.Add(`{"nodes": -3, "dispatch": "round-robin"}`)
	f.Add(`{"nodes": 2, "dispatch": "no-such-policy"}`)
	f.Add(`{"nodes": 1e9}`)
	f.Add(`null`)
	f.Add(`{}`)
	f.Add(`{"nodes": 2, "unknown_field": true}`)
	f.Add(`{"node_types": [{"count": 2, "sms": 16}, {"count": 2, "pcie_gen": 3}]}`)
	f.Add(`{"node_types": [null]}`)
	f.Add(`{"nodes": 2, "node_types": []}`)
	f.Add(`{"node_types": [{"count": 0}]}`)
	f.Add(`{"nodes": 3, "node_types": [{"count": 2}]}`)
	f.Add(`{"node_types": [{"count": 1, "slow_factor": -1}]}`)
	f.Add(`{"node_types": [{"count": 1, "pcie_gen": 9}]}`)
	f.Add(`{"nodes": 2, "autoscale": {"min": 2, "max": 8, "high_backlog": 4, "low_backlog": 1}}`)
	f.Add(`{"nodes": 2, "autoscale": {"min": 8, "max": 2}}`)
	f.Add(`{"nodes": 2, "autoscale": {"interval": -5}}`)
	f.Add(`{"nodes": 2, "autoscale": {"high_miss": 2.5}}`)
	f.Add(`{"nodes": 4, "faults": {"kill_rate": 200, "downtime": 500000}}`)
	f.Add(`{"nodes": 4, "faults": {"downtime": -1}}`)
	f.Add(`{"nodes": 4, "faults": {"kill_rate": -3}}`)
	f.Add(`{"nodes": 4, "faults": {"straggler_frac": 1.5}}`)
	f.Add(`{"nodes": 4, "faults": {"straggler_frac": 0.25, "slow_factor": 3}}`)
	f.Add(`{"nodes": 4, "resilience": {"timeout": 400000, "retry": {"max_attempts": 4, "backoff_base": 20000, "budget": {"tokens": 10, "ratio": 0.1}}}}`)
	f.Add(`{"nodes": 4, "resilience": {"hedge": {"quantile": 0.95, "min_obs": 16, "max_hedges": 1}, "shed": {"per_node": 8, "queue": 32}}}`)
	f.Add(`{"nodes": 4, "resilience": {"breaker": {"window": 500000, "error_rate": 0.5, "min_volume": 8, "cooldown": 250000, "probes": 2}}}`)
	f.Add(`{"nodes": 4, "resilience": {"timeout": -1}}`)
	f.Add(`{"nodes": 4, "resilience": {"retry": {"max_attempts": -2}}}`)
	f.Add(`{"nodes": 4, "resilience": {"retry": {"budget": {"tokens": -5}}}}`)
	f.Add(`{"nodes": 4, "resilience": {"retry": {"backoff_base": 100, "backoff_max": 10}}}`)
	f.Add(`{"nodes": 4, "resilience": {"hedge": {"quantile": 1.5}}}`)
	f.Add(`{"nodes": 4, "resilience": {"breaker": {"error_rate": -0.5}}}`)
	f.Add(`{"nodes": 4, "resilience": {"shed": {"per_node": -1}}}`)
	f.Add(`{"nodes": 4, "resilience": null}`)
	f.Fuzz(func(t *testing.T, data string) {
		c, err := ReadConfig(strings.NewReader(data))
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted topology fails validation: %v\ninput: %s", err, data)
		}
		if _, err := NewDispatcher(c.Dispatch, c.Seed); err != nil {
			t.Fatalf("accepted topology cannot build its dispatcher: %v\ninput: %s", err, data)
		}
		if c.Autoscale != nil {
			if _, err := NewStepAutoscaler(*c.Autoscale); err != nil {
				t.Fatalf("accepted autoscale stanza cannot build its policy: %v\ninput: %s", err, data)
			}
		}
		if n := c.StartNodes(); n < 1 || n > MaxNodes {
			t.Fatalf("accepted topology has %d starting nodes\ninput: %s", n, data)
		}
		blob, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("accepted topology does not serialize: %v", err)
		}
		rt, err := ReadConfig(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("round-trip rejected: %v\njson: %s", err, blob)
		}
		// An empty node_types list is omitted on encoding, so it comes back
		// nil: the same topology.
		if len(c.NodeTypes) == 0 {
			c.NodeTypes = nil
		}
		if !reflect.DeepEqual(rt, c) {
			t.Fatalf("round-trip changed the topology: %+v vs %+v", rt, c)
		}
	})
}
