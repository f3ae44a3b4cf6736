package cluster

import (
	"strings"
	"testing"

	"repro/internal/resilience"
)

// TestReadConfigRejectsNullNodeType pins that a null node_types entry, which
// decodes to a zero-valued NodeType, fails validation on its zero count.
func TestReadConfigRejectsNullNodeType(t *testing.T) {
	_, err := ReadConfig(strings.NewReader(`{"node_types": [null]}`))
	if err == nil || !strings.Contains(err.Error(), "count 0 must be positive") {
		t.Errorf("null node type: got %v, want the zero-count error", err)
	}
}

// TestNewChecksShapeLikeConfig pins that New rejects a bad fleet shape with
// exactly the error a topology file of that shape gets from Config.Validate:
// the run path and the file path share one check.
func TestNewChecksShapeLikeConfig(t *testing.T) {
	tr := testTrace(t, 20000, 3)
	for _, tc := range []struct {
		name  string
		shape func(*RunConfig)
		want  string
	}{
		{"too many nodes", func(rc *RunConfig) { rc.Nodes = MaxNodes + 1 }, "out of range"},
		{"bad node type", func(rc *RunConfig) { rc.NodeTypes = []NodeType{{Count: 1, PCIeGen: 9}} }, "node type 0: "},
		{"count mismatch", func(rc *RunConfig) { rc.Nodes = 3; rc.NodeTypes = []NodeType{{Count: 2}} }, "does not match"},
		{"types over the cap", func(rc *RunConfig) { rc.NodeTypes = []NodeType{{Count: MaxNodes}, {Count: 1}} }, "out of range"},
		{"autoscale", func(rc *RunConfig) { rc.Autoscale = &StepConfig{Min: 3, Max: 2} }, "autoscale bounds"},
		{"faults", func(rc *RunConfig) { rc.Faults = &FaultSpec{KillRate: -1} }, "kill rate"},
		{"resilience", func(rc *RunConfig) {
			rc.Resilience = &resilience.Spec{Retry: &resilience.RetryPolicy{MaxAttempts: -1}}
		}, "max attempts"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rc := testRunConfig(2, NewJSQ())
			tc.shape(&rc)
			_, err := New(tr, rc)
			want := Config{Nodes: rc.Nodes, NodeTypes: rc.NodeTypes,
				Autoscale: rc.Autoscale, Faults: rc.Faults, Resilience: rc.Resilience}.Validate()
			if err == nil || want == nil || err.Error() != want.Error() || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("New: %v; Config.Validate: %v; want both to mention %q", err, want, tc.want)
			}
		})
	}
}
