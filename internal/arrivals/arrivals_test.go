package arrivals

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/parboil"
	"repro/internal/policy"
	"repro/internal/preempt"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"
)

// testSpec is a small two-class open-system spec over Parboil micro-requests.
func testSpec(proc Process, rate float64, seed uint64) GenSpec {
	suite := parboil.Suite()
	for i, a := range suite {
		suite[i] = a.Scale(48)
	}
	micro := MicroApps(suite)
	var short, long []AppChoice
	for _, c := range micro {
		if c.App.Kernels[0].TBTime <= sim.Microseconds(10) {
			short = append(short, c)
		} else {
			long = append(long, c)
		}
	}
	return GenSpec{
		Process: proc,
		Rate:    rate,
		Horizon: 5 * sim.Millisecond,
		Seed:    seed,
		Classes: []ClassSpec{
			{Name: "rt", Priority: 1, Weight: 1, Deadline: sim.Microseconds(300), Apps: short},
			{Name: "batch", Priority: 0, Weight: 3, Apps: long},
		},
	}
}

func testRunConfig(mech func() core.Mechanism) RunConfig {
	sys := system.DefaultConfig()
	sys.Seed = 7
	return RunConfig{
		Sys:       sys,
		Policy:    func(n int) core.Policy { return policy.NewPPQ(true) },
		Mechanism: mech,
	}
}

func TestGenerateDeterministicAndOrdered(t *testing.T) {
	for _, p := range []Process{ProcPoisson, ProcBursty, ProcHeavyTail} {
		a, err := Generate(testSpec(p, 20000, 11))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		b, err := Generate(testSpec(p, 20000, 11))
		if err != nil {
			t.Fatal(err)
		}
		var ab, bb bytes.Buffer
		if err := a.WriteJSON(&ab); err != nil {
			t.Fatal(err)
		}
		if err := b.WriteJSON(&bb); err != nil {
			t.Fatal(err)
		}
		if ab.String() != bb.String() {
			t.Errorf("%s: same spec generated different streams", p)
		}
		other, err := Generate(testSpec(p, 20000, 12))
		if err != nil {
			t.Fatal(err)
		}
		var ob bytes.Buffer
		if err := other.WriteJSON(&ob); err != nil {
			t.Fatal(err)
		}
		if ab.String() == ob.String() {
			t.Errorf("%s: different seeds generated identical streams", p)
		}
		if len(a.Arrivals) < 10 {
			t.Errorf("%s: only %d arrivals over 5ms at 20k/s", p, len(a.Arrivals))
		}
		for i := 1; i < len(a.Arrivals); i++ {
			if a.Arrivals[i].At < a.Arrivals[i-1].At {
				t.Fatalf("%s: arrivals out of order at %d", p, i)
			}
		}
	}
}

func TestGenerateRespectsBounds(t *testing.T) {
	spec := testSpec(ProcPoisson, 100000, 3)
	spec.MaxArrivals = 7
	tr, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Arrivals) != 7 {
		t.Errorf("MaxArrivals=7 produced %d arrivals", len(tr.Arrivals))
	}
	for _, a := range tr.Arrivals {
		if a.At >= spec.Horizon {
			t.Errorf("arrival at %v beyond horizon %v", a.At, spec.Horizon)
		}
	}
	if _, err := Generate(GenSpec{Rate: 100}); err == nil {
		t.Error("unbounded spec accepted")
	}
	if _, err := Generate(GenSpec{Rate: -1, MaxArrivals: 1}); err == nil {
		t.Error("negative rate accepted")
	}
}

// TestRejectsEndlessStreams pins that a rate whose gaps never advance the
// clock is rejected up front: a NaN rate or factor, an infinite one, or a
// peak rate above 1e9/s (a mean gap under 1ns) would otherwise generate
// arrivals until memory runs out, never reaching the horizon.
func TestRejectsEndlessStreams(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	phases := func(f float64) []Phase {
		return []Phase{{RateFactor: 1, Duration: sim.Millisecond}, {RateFactor: f, Duration: sim.Millisecond}}
	}
	cases := map[string]func(*GenSpec){
		"NaN rate":         func(g *GenSpec) { g.Rate = nan },
		"+Inf rate":        func(g *GenSpec) { g.Rate = inf },
		"1e300 rate":       func(g *GenSpec) { g.Rate = 1e300 },
		"NaN factor":       func(g *GenSpec) { g.Phases = phases(nan) },
		"+Inf factor":      func(g *GenSpec) { g.Phases = phases(inf) },
		"peak above 1e9":   func(g *GenSpec) { g.Rate, g.Phases = 1e8, phases(20) },
		"overflowing peak": func(g *GenSpec) { g.Rate, g.Phases = 1e200, phases(1e200) },
	}
	for name, mutate := range cases {
		spec := testSpec(ProcPoisson, 100000, 3)
		mutate(&spec)
		if _, err := Generate(spec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The boundary: a 1ns mean gap is representable, and a large factor on
	// a low base rate is fine.
	for _, g := range []GenSpec{{Rate: 1e9}, {Rate: 1e3, Phases: phases(1e6)}} {
		spec := testSpec(ProcPoisson, g.Rate, 3)
		spec.Phases, spec.MaxArrivals = g.Phases, 10
		if _, err := Generate(spec); err != nil {
			t.Errorf("rate %v, phases %v: %v", g.Rate, g.Phases, err)
		}
	}
}

func TestMicroApps(t *testing.T) {
	suite := parboil.Suite()
	micro := MicroApps(suite)
	kernels := 0
	for _, a := range suite {
		kernels += len(a.Kernels)
	}
	if len(micro) != kernels {
		t.Fatalf("micro apps = %d, want one per suite kernel (%d)", len(micro), kernels)
	}
	for _, c := range micro {
		if err := c.App.Validate(); err != nil {
			t.Errorf("micro app %s invalid: %v", c.App.Name, err)
		}
		if c.Weight <= 0 {
			t.Errorf("micro app %s has weight %v", c.App.Name, c.Weight)
		}
		if n := len(c.App.Ops); n != 2 {
			t.Errorf("micro app %s has %d ops, want launch+sync", c.App.Name, n)
		}
	}
}

// TestRunOpenSystem runs a moderate Poisson stream to completion and checks
// the streaming accounting end to end: everything admitted completes, the
// books balance, latency sketches cover every completion, and retirement
// freed every context.
func TestRunOpenSystem(t *testing.T) {
	tr, err := Generate(testSpec(ProcPoisson, 30000, 5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tr, testRunConfig(func() core.Mechanism { return preempt.ContextSwitch{} }))
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != len(tr.Arrivals) {
		t.Errorf("admitted %d of %d arrivals", res.Admitted, len(tr.Arrivals))
	}
	if res.Admitted != res.Completed+res.InFlight {
		t.Errorf("conservation violated: admitted %d != completed %d + in-flight %d",
			res.Admitted, res.Completed, res.InFlight)
	}
	if res.InFlight != 0 {
		t.Errorf("stream did not drain: %d in flight at %v", res.InFlight, res.EndTime)
	}
	var sketched uint64
	for i := range res.Classes {
		c := &res.Classes[i]
		sketched += c.Latency.N()
		if c.Latency.N() != uint64(c.Completed) {
			t.Errorf("class %s: %d latency samples for %d completions", c.Name, c.Latency.N(), c.Completed)
		}
		if c.Completed > 0 && c.Latency.Quantile(0.5) <= 0 {
			t.Errorf("class %s: non-positive median latency", c.Name)
		}
	}
	if sketched != uint64(res.Completed) {
		t.Errorf("sketches hold %d samples for %d completions", sketched, res.Completed)
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Errorf("utilization = %v", res.Utilization)
	}
	if res.Goodput <= 0 {
		t.Errorf("goodput = %v", res.Goodput)
	}
}

// TestRunReplayEqualsGenerated pins the replay contract: running a stream
// loaded from its serialized JSON equals running the generated stream.
func TestRunReplayEqualsGenerated(t *testing.T) {
	tr, err := Generate(testSpec(ProcBursty, 20000, 9))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	replay, err := trace.ReadArrivalTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() core.Mechanism { return preempt.NewAdaptive() }
	a, err := Run(tr, testRunConfig(mk))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(replay, testRunConfig(mk))
	if err != nil {
		t.Fatal(err)
	}
	if a.Admitted != b.Admitted || a.Completed != b.Completed || a.EndTime != b.EndTime ||
		a.Missed != b.Missed || a.Utilization != b.Utilization {
		t.Errorf("replayed stream diverged: %+v vs %+v", a, b)
	}
	for i := range a.Classes {
		for _, q := range []float64{0.5, 0.95, 0.99} {
			if a.Classes[i].Latency.Quantile(q) != b.Classes[i].Latency.Quantile(q) {
				t.Errorf("class %s: q%v diverged under replay", a.Classes[i].Name, q)
			}
		}
	}
}
