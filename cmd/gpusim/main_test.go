package main

import "testing"

// TestParseBytesRange requires parseBytes to reject, rather than convert,
// sizes outside int64: Go leaves that conversion implementation-defined, so
// on arm64 "Inf" and "1e19" would otherwise saturate to an 8 EiB GPU.
func TestParseBytesRange(t *testing.T) {
	// 8589934592GiB is exactly 2^63 bytes, one past the largest int64.
	for _, s := range []string{"NaN", "Inf", "-Inf", "1e19", "8589934592GiB"} {
		if b, err := parseBytes(s); err == nil {
			t.Errorf("parseBytes(%q) = %d, want an error", s, b)
		}
	}
	for s, want := range map[string]int64{"65536": 65536, "4GiB": 4 << 30, "1.5KiB": 1536, "9e18": 9e18} {
		if b, err := parseBytes(s); err != nil || b != want {
			t.Errorf("parseBytes(%q) = %d, %v; want %d", s, b, err, want)
		}
	}
}
