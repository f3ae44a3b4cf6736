package cluster

import (
	"strings"
	"testing"
)

// TestReadConfigRejectsNullNodeType pins that a null node_types entry, which
// decodes to a zero-valued NodeType, fails validation on its zero count.
func TestReadConfigRejectsNullNodeType(t *testing.T) {
	_, err := ReadConfig(strings.NewReader(`{"node_types": [null]}`))
	if err == nil || !strings.Contains(err.Error(), "count 0 must be positive") {
		t.Errorf("null node type: got %v, want the zero-count error", err)
	}
}
