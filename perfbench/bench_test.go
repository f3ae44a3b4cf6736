package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/preempt"
)

// tiny returns the workloads shrunk to test size: the same code paths at a
// few hundred requests or a dozen grid cells.
func tiny() map[string]scenario {
	jsq, chaos, grid := *fleetJSQ, *fleetChaos, *paperGrid
	jsq.requests, chaos.requests = 400, 400
	grid.sizes, grid.scale = []int{2, 4}, 256
	return map[string]scenario{"fleet-jsq": &jsq, "fleet-chaos": &chaos, "paper-grid": &grid}
}

// useTiny swaps the tiny workloads in for the duration of a test.
func useTiny(t *testing.T) {
	full := workloads
	workloads = tiny()
	t.Cleanup(func() { workloads = full })
}

type benchmarkFile struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// runLine runs the command line and decodes its last output line.
func runLine(t *testing.T, args ...string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(append(args, "-out", t.TempDir()), &out, &errOut); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line %q: %v", args, lines[len(lines)-1], err)
	}
	return res
}

// TestEveryMetricPrinted runs each workload at tiny size in both modes and
// checks that the result line carries exactly the metrics BENCHMARK.json
// declares, with their units, and that every check passed.
func TestEveryMetricPrinted(t *testing.T) {
	useTiny(t)
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for mode, defs := range map[string][]struct{ Name, Unit string }{"0": bf.EndToEnd, "1": bf.PerLayer} {
			res := runLine(t, "-workload", w.Name, "-seed", "3", "-seconds", "0", "-trace", mode)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.Name, mode, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json declares %d", w.Name, mode, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%s: metric %s printed as %+v, want unit %s", w.Name, mode, d.Name, m, d.Unit)
				}
			}
		}
	}
}

// TestMetricTablesMatchMeta keeps the notes file in step with the program.
func TestMetricTablesMatchMeta(t *testing.T) {
	data, err := os.ReadFile("meta.json")
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		Metrics map[string]struct {
			Kind string `json:"kind"`
		} `json:"metrics"`
		Workloads map[string]json.RawMessage `json:"workloads"`
	}
	if err := json.Unmarshal(data, &meta); err != nil {
		t.Fatal(err)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if meta.Metrics[d.name].Kind == "" {
			t.Errorf("meta.json does not classify metric %s", d.name)
		}
	}
	for name := range workloads {
		if meta.Workloads[name] == nil {
			t.Errorf("meta.json does not describe workload %s", name)
		}
	}
}

// TestChecksRejectCorruptedResults corrupts one field of each workload's
// simulated output and expects the output checks to fail.
func TestChecksRejectCorruptedResults(t *testing.T) {
	for name, w := range tiny() {
		b, err := w.setup(5, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.run(nil); err != nil {
			t.Fatal(err)
		}
		if o := b.outcome(); len(o.failed) > 0 {
			t.Fatalf("%s: clean result fails its checks: %v", name, o.failed)
		}
		switch b := b.(type) {
		case *fleetBatch:
			b.res.Completed--
		case *gridBatch:
			b.results[len(b.results)-1].Completed = false
		}
		if o := b.outcome(); len(o.failed) == 0 {
			t.Errorf("%s: corrupted result passes its checks", name)
		}
	}
	// A simulation that does not repeat the first one's outputs fails too.
	var ta tally
	var sink bytes.Buffer
	first := rep{ops: 10, out: outcome{sim: map[string]float64{"sim_antt": 1.5}}}
	if !ta.add(first, nil, &sink, "first") {
		t.Fatal("first outcome rejected")
	}
	drift := rep{ops: 10, out: outcome{sim: map[string]float64{"sim_antt": 1.25}}}
	if ta.add(drift, nil, &sink, "second") || ta.failed != 10 || ta.attempted != 20 {
		t.Errorf("drifted outcome: failed=%d attempted=%d", ta.failed, ta.attempted)
	}
}

// TestWrappersPreserveBehaviour checks that the traced wrappers forward every
// optional interface the simulator type-checks, so Cluster.Executor and every
// simulated output stay the same with tracing on, for every dispatch policy
// and for each workload.
func TestWrappersPreserveBehaviour(t *testing.T) {
	tr := newTracer()
	for _, kind := range cluster.Kinds() {
		d, err := cluster.NewDispatcher(kind, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := dispatcherMask(traceDispatcher(d, tr)), dispatcherMask(d); got != want {
			t.Errorf("%s: wrapper implements optional interfaces %04b, dispatcher %04b", kind, got, want)
		}
	}
	for _, m := range []core.Mechanism{preempt.NewAdaptive(), preempt.ContextSwitch{}, preempt.Drain{}} {
		_, want := m.(core.TBObserver)
		if _, got := traceMechanism(m, tr).(core.TBObserver); got != want {
			t.Errorf("%s: wrapper observes thread blocks %v, mechanism %v", m.Name(), got, want)
		}
	}

	cases := tiny()
	for _, kind := range cluster.Kinds() {
		f := *fleetJSQ
		f.requests, f.dispatch = 300, kind
		cases["fleet-jsq/"+string(kind)] = &f
	}
	for name, w := range cases {
		var outs [2]outcome
		for i, tr := range []*tracer{nil, newTracer()} {
			b, err := w.setup(7, 1, tr)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.run(tr); err != nil {
				t.Fatal(err)
			}
			outs[i] = b.outcome()
			if len(outs[i].failed) > 0 {
				t.Fatalf("%s: %v", name, outs[i].failed)
			}
		}
		if d := diffOutcome(outs[0], outs[1]); d != "" {
			t.Errorf("%s: tracing changed the outputs: %s", name, d)
		}
	}
}

// TestSeedMakesInputs checks that the seed alone fixes a workload's inputs.
func TestSeedMakesInputs(t *testing.T) {
	w := tiny()["fleet-chaos"]
	arrivalsOf := func(seed uint64) []byte {
		b, err := w.setup(seed, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(b.(*fleetBatch).tr.Arrivals)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(arrivalsOf(4), arrivalsOf(4)) {
		t.Error("the same seed made different streams")
	}
	if bytes.Equal(arrivalsOf(4), arrivalsOf(5)) {
		t.Error("different seeds made the same stream")
	}
}

// dispatcherMask reports which optional interfaces d implements.
func dispatcherMask(d cluster.Dispatcher) int {
	_, isLA := d.(cluster.Lookahead)
	_, isLO := d.(cluster.LoadOblivious)
	_, isWA := d.(cluster.WorkingSetAware)
	_, isWS := d.(cluster.WarmStater)
	return mask(isLA, isLO, isWA, isWS)
}
