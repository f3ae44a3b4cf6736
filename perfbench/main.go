// Command perfbench is the simulator's benchmark. It builds one workload's
// inputs from a seed, runs the simulation repeatedly for a fixed time, checks
// every output, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a traced run) as the last line of standard output:
//
//	perfbench -workload fleet-jsq -seed 1 -seconds 30 -trace 0
//
// run.sh builds and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the workload seed when -seed is not given.
const defaultSeed = 1

// minReps is the fewest timed simulations a run makes, however short
// -seconds is; setup_s is the median of at least minSetups set-ups.
const (
	minReps   = 3
	minSetups = 25
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics the two modes print, in BENCHMARK.json
// order.
var endToEnd = []metricDef{
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"allocs_per_op", "count"},
	{"bytes_per_op", "B"},
	{"peak_rss_mb", "MB"},
	{"sim_rt_p99_us", "sim_us"},
	{"sim_goodput_frac", "frac"},
	{"sim_antt", "ratio"},
	{"sim_hp_ntt", "ratio"},
}

var perLayer = []metricDef{
	{"arrivals.generate_s", "s/call"},
	{"proc.setup_ns_per_req", "ns/req"},
	{"proc.setup_allocs_per_req", "count"},
	{"cluster.new_s", "s/call"},
	{"cluster.run_self_ns_per_req", "ns/req"},
	{"cluster.pick_ns", "ns/call"},
	{"cluster.picks_per_req", "ratio"},
	{"cluster.feedback_ns", "ns/call"},
	{"cluster.useful_frac", "frac"},
	{"cluster.lost_per_req", "ratio"},
	{"cluster.window_speedup", "ratio"},
	{"gmem.spills_per_req", "ratio"},
	{"gmem.swap_mib", "MiB"},
	{"gmem.rejects_per_req", "ratio"},
	{"resilience.retries_per_req", "ratio"},
	{"resilience.hedges_per_req", "ratio"},
	{"resilience.timeouts_per_req", "ratio"},
	{"resilience.dropped_frac", "frac"},
	{"resilience.breaker_trips", "count"},
	{"core.tbs_per_op", "count"},
	{"core.preemptions_per_op", "count"},
	{"core.sm_util", "frac"},
	{"sim.events_per_op", "count"},
	{"sim.host_ns_per_event", "ns/event"},
	{"policy.calls_per_op", "count"},
	{"policy.ns_per_call", "ns/call"},
	{"preempt.calls_per_op", "count"},
	{"preempt.ns_per_call", "ns/call"},
	{"pcie.ctx_mib_per_op", "MiB"},
	{"workload.isolated_frac", "frac"},
	{"go.gc_cpu_frac", "frac"},
	{"go.gc_cycles_per_op", "count"},
	{"trace.overhead_frac", "frac"},
	{"host.wall_s", "s"},
	{"host.steal_frac", "frac"},
	{"calib.alu_ns", "ns/iter"},
	{"calib.ref_s", "s"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // directory for the span file
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	fs.Uint64Var(&cfg.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measurement time in seconds")
	traceN := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceN == 1
	if _, ok := workloads[cfg.workload]; !ok || (*traceN != 0 && *traceN != 1) || cfg.seconds < 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s) and -trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	res, err := bench(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func bench(cfg config, stdout io.Writer) (*result, error) {
	w := workloads[cfg.workload]
	// The simulations run one executor worker. One P keeps the GC's idle
	// mark workers off the second CPU: they spun there for as long as each
	// collection lasted, which added a varying 10-30% to cpu_s and let the
	// peak RSS depend on how the concurrent collector raced the program.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	alu := aluNs()
	fmt.Fprintf(stdout, "calibration: alu_ns=%.4f\n", alu)
	if cfg.trace {
		return benchTraced(w, cfg, alu, stdout)
	}
	var ta tally
	var setups, cpus, raws, refs, walls, steals, allocs, bytes, rss []float64
	// A warm-up simulation grows the heap and fills the caches; its outputs
	// are checked, its timings dropped.
	r, err := measure(w, cfg, 1, nil)
	ta.add(r, err, stdout, "warm-up simulation")
	// The reference workload runs between every two simulations; each
	// simulation's times are scaled by the two runs around it.
	ref0 := refProbe()
	refs = append(refs, ref0)
	scale := func(ref1 float64) float64 {
		f := refScale((ref0+ref1)/2, w.refElasticity())
		ref0 = ref1
		refs = append(refs, ref1)
		return f
	}
	start := time.Now()
	for i := 0; i < minReps || time.Since(start).Seconds() < cfg.seconds; i++ {
		r, err := measure(w, cfg, 1, nil)
		f := scale(refProbe())
		setups = append(setups, r.setup*f)
		if !ta.add(r, err, stdout, fmt.Sprintf("simulation %d", i)) {
			continue
		}
		cpus = append(cpus, r.cpu*f)
		raws = append(raws, r.cpu)
		walls = append(walls, r.wall)
		steals = append(steals, r.steal)
		allocs = append(allocs, r.allocs)
		bytes = append(bytes, r.bytes)
		rss = append(rss, r.rssMB)
	}
	for len(setups) < minSetups {
		_, setup, err := timedSetup(w, cfg, 1, nil)
		if err != nil {
			ta.add(rep{}, err, stdout, "set-up")
			break
		}
		setups = append(setups, setup*scale(refProbe()))
	}
	fmt.Fprintf(stdout, "%s: %d timed simulations; cpu_s %s; raw cpu_s %s; reference s %s; wall_s %s; steal %.3f of wall\n",
		cfg.workload, len(cpus), spread(cpus), spread(raws), spread(refs), spread(walls), ratio(sum(steals), sum(walls)))
	vals := map[string]float64{
		"cpu_s":         median(cpus),
		"setup_s":       median(setups),
		"allocs_per_op": median(allocs),
		"bytes_per_op":  median(bytes),
		"peak_rss_mb":   median(rss),
	}
	if ta.first != nil {
		for k, v := range ta.first.sim {
			vals[k] = v
		}
	}
	return finish(&ta, endToEnd, vals, stdout), nil
}

// benchTraced is the -trace 1 run: untraced simulations at one and at nproc
// executor workers (the latter with nproc Ps), a traced simulation, and the
// per-request set-up ledger, repeated for the measurement time.
func benchTraced(w scenario, cfg config, alu float64, stdout io.Writer) (*result, error) {
	t := newTracer()
	nproc := runtime.NumCPU()
	var ta tally
	var cpus1, walls1, wallsN, cpusT, refs []float64
	var gcCPU, rtCPU, gcCycles, ops1, steal float64
	var tracedOps int
	var events uint64
	var last rep
	start := time.Now()
	for i := 0; i < 1 || time.Since(start).Seconds() < cfg.seconds; i++ {
		refs = append(refs, refProbe())
		r, err := measure(w, cfg, 1, nil)
		if ta.add(r, err, stdout, fmt.Sprintf("untraced simulation %d", i)) {
			cpus1 = append(cpus1, r.cpu)
			walls1 = append(walls1, r.wall)
			gcCPU, rtCPU, gcCycles = gcCPU+r.gcCPU, rtCPU+r.rtCPU, gcCycles+r.gcCycles
			ops1, steal = ops1+float64(r.ops), steal+r.steal
		}
		if _, isFleet := w.(*fleet); isFleet {
			runtime.GOMAXPROCS(nproc)
			r, err = measure(w, cfg, nproc, nil)
			runtime.GOMAXPROCS(1)
			if ta.add(r, err, stdout, fmt.Sprintf("simulation %d at %d workers", i, nproc)) {
				wallsN = append(wallsN, r.wall)
			}
		}
		r, err = measure(w, cfg, 1, t)
		if ta.add(r, err, stdout, fmt.Sprintf("traced simulation %d", i)) {
			cpusT = append(cpusT, r.cpu)
			tracedOps += r.ops
			events += r.events
			last = r
		}
	}
	led, err := runLedger(w, cfg, t)
	if err != nil {
		ta.add(rep{}, err, stdout, "set-up ledger")
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	if err := t.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "spans: %d recorded, %d written to %s\n", t.next, len(t.spans), path)

	per := func(n int64, ops int) float64 {
		if ops == 0 {
			return 0
		}
		return float64(n) / float64(ops)
	}
	perCall := func(a spanAgg) float64 { return per(a.self, int(a.calls)) }
	pick, run := t.agg("cluster.Pick"), t.agg("cluster.Run")
	feedback := t.agg("cluster.Dispatched")
	done := t.agg("cluster.Completed")
	feedback.calls += done.calls
	feedback.self += done.self
	pol, pre := t.layer("policy."), t.layer("preempt.")
	cpu1, wall1 := median(cpus1), median(walls1)
	eventsPerOp := per(int64(events), tracedOps)
	vals := map[string]float64{
		"arrivals.generate_s":         perCall(t.agg("arrivals.Generate")) / 1e9,
		"proc.setup_ns_per_req":       led.ns,
		"proc.setup_allocs_per_req":   led.allocs,
		"cluster.new_s":               perCall(t.agg("cluster.New")) / 1e9,
		"cluster.run_self_ns_per_req": per(run.self, tracedOps),
		"cluster.pick_ns":             perCall(pick),
		"cluster.picks_per_req":       per(pick.calls, tracedOps),
		"cluster.feedback_ns":         perCall(feedback),
		"cluster.window_speedup":      ratio(wall1, median(wallsN)),
		"sim.events_per_op":           eventsPerOp,
		"sim.host_ns_per_event":       ratio(cpu1*1e9/float64(last.ops), eventsPerOp),
		"policy.calls_per_op":         per(pol.calls, tracedOps),
		"policy.ns_per_call":          perCall(pol),
		"preempt.calls_per_op":        per(pre.calls, tracedOps),
		"preempt.ns_per_call":         perCall(pre),
		"workload.isolated_frac":      ratio(float64(t.agg("workload.Isolated").total), float64(t.agg("op").total)),
		"go.gc_cpu_frac":              ratio(gcCPU, rtCPU),
		"go.gc_cycles_per_op":         ratio(gcCycles, ops1),
		"trace.overhead_frac":         ratio(median(cpusT)-cpu1, cpu1),
		"host.wall_s":                 wall1,
		"host.steal_frac":             ratio(steal, sum(walls1)),
		"calib.alu_ns":                alu,
		"calib.ref_s":                 median(refs),
	}
	for _, d := range perLayer {
		if _, ok := vals[d.name]; !ok {
			vals[d.name] = last.out.layer[d.name] // zero where the workload never enters the layer
		}
	}
	return finish(&ta, perLayer, vals, stdout), nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// finish assembles the result line from the measured values, failing the
// run when a value is missing or not a finite number.
func finish(ta *tally, defs []metricDef, vals map[string]float64, w io.Writer) *result {
	res := &result{Attempted: ta.attempted, Failed: ta.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(w, "FAIL metric %s: %v\n", d.name, v)
			v = 0
			if ta.failed == 0 {
				ta.failed = 1
			}
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res.Failed = ta.failed
	if res.Attempted < res.Failed {
		res.Attempted = res.Failed
	}
	res.Correct = res.Failed == 0
	return res
}
