package repro

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

// openSpec builds a two-class open-system spec mixing a Parboil app with a
// custom AppBuilder app (the builder's traces are first-class citizens of
// arrival streams).
func openSpec(t *testing.T) *ArrivalSpec {
	t.Helper()
	spmv, err := AppByName("spmv")
	if err != nil {
		t.Fatal(err)
	}
	ping, err := NewApp("ping").
		Kernel(KernelConfig{Name: "probe", ThreadBlocks: 13, TBTime: 5 * time.Microsecond, RegsPerTB: 4096, Idempotent: true}).
		Launch("probe").Sync().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return &ArrivalSpec{
		Process: ArrivalPoisson,
		Rate:    20000,
		Horizon: SimTime(2 * time.Millisecond),
		Classes: []ArrivalClass{
			{Name: "rt", Priority: 1, Weight: 1, Deadline: SimTime(500 * time.Microsecond), Apps: []AppChoice{{App: ping, Weight: 1}}},
			{Name: "batch", Priority: 0, Weight: 2, Apps: []AppChoice{{App: spmv.Scale(48), Weight: 1}}},
		},
	}
}

func TestRunOpen(t *testing.T) {
	o := Options{Policy: PolicyPPQ, Mechanism: MechanismAdaptive, Seed: 3, Arrivals: openSpec(t)}
	res, err := RunOpen(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted == 0 {
		t.Fatal("no requests admitted")
	}
	if res.Admitted != res.Completed+res.InFlight {
		t.Errorf("conservation violated: %d != %d + %d", res.Admitted, res.Completed, res.InFlight)
	}
	if len(res.Classes) != 2 || res.Classes[0].Name != "rt" || res.Classes[1].Name != "batch" {
		t.Fatalf("classes = %+v", res.Classes)
	}
	for _, c := range res.Classes {
		p50, p95 := c.Latency.Quantile(0.50), c.Latency.Quantile(0.95)
		if c.Completed > 0 && (p50 <= 0 || p95 < p50) {
			t.Errorf("class %s: implausible percentiles p50=%v p95=%v", c.Name, p50, p95)
		}
	}
	if res.Goodput <= 0 || res.Utilization <= 0 {
		t.Errorf("goodput=%v utilization=%v", res.Goodput, res.Utilization)
	}

	// Determinism: an identical run returns an identical result.
	again, err := RunOpen(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Error("RunOpen not deterministic for identical options")
	}
}

// TestRunOpenReplay pins that synthesizing a stream, serializing it and
// replaying the parsed copy reproduces the direct run exactly.
func TestRunOpenReplay(t *testing.T) {
	spec := openSpec(t)
	o := Options{Policy: PolicyPPQ, Mechanism: MechanismContextSwitch, Seed: 9, Arrivals: spec}
	direct, err := RunOpen(o)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := spec.Synthesize(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadArrivals(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Arrivals) != len(tr.Arrivals) {
		t.Fatalf("round trip changed arrival count: %d != %d", len(parsed.Arrivals), len(tr.Arrivals))
	}
	ro := o
	ro.Arrivals = &ArrivalSpec{Trace: parsed}
	replayed, err := RunOpen(ro)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, replayed) {
		t.Errorf("replayed stream diverged from direct run:\n direct: %+v\n replay: %+v", direct, replayed)
	}
}

func TestRunOpenErrors(t *testing.T) {
	if _, err := RunOpen(Options{}); err == nil {
		t.Error("RunOpen without Arrivals accepted")
	}
	if _, err := RunOpen(Options{Arrivals: &ArrivalSpec{Rate: 100, Horizon: SimTime(time.Millisecond)}}); err == nil {
		t.Error("spec without classes accepted")
	}
	nilApp := openSpec(t)
	nilApp.Classes[0].Apps = append(nilApp.Classes[0].Apps, AppChoice{Weight: 1})
	if _, err := RunOpen(Options{Arrivals: nilApp}); err == nil || !strings.Contains(err.Error(), "nil application") {
		t.Errorf("nil app accepted: %v", err)
	}
	for _, w := range []float64{0, -1} {
		bad := openSpec(t)
		bad.Classes[1].Apps[0].Weight = w
		if _, err := RunOpen(Options{Arrivals: bad}); err == nil || !strings.Contains(err.Error(), "weight must be positive") {
			t.Errorf("app weight %v accepted: %v", w, err)
		}
	}
}
