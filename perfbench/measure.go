package main

import (
	"container/heap"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// rep is one set-up and timed simulation.
type rep struct {
	setup         float64 // process CPU seconds of the set-up
	cpu, wall     float64 // process CPU and wall seconds of the timed simulation
	steal         float64 // seconds the hypervisor took from each CPU meanwhile
	allocs, bytes float64 // heap allocations and bytes per op
	rssMB         float64 // peak RSS during the timed simulation
	gcCPU, rtCPU  float64 // Go runtime: GC CPU seconds and total CPU capacity
	gcCycles      float64
	events        uint64 // simulated events (traced simulations only)
	ops           int
	out           outcome
}

// measure sets up and runs one batch of w. The timed simulation starts from
// a settled heap and excludes set-up and output checks.
func measure(w scenario, cfg config, workers int, t *tracer) (rep, error) {
	var r rep
	b, setup, err := timedSetup(w, cfg, workers, t)
	r.setup = setup
	if err != nil {
		return r, fmt.Errorf("set-up: %w", err)
	}
	r.ops = b.ops()
	if t != nil {
		t.resetEngines()
	}
	// Settle the heap, hand freed pages back to the OS and restart the peak
	// RSS counter, so each simulation's peak is its own.
	debug.FreeOSMemory()
	resetPeakRSS()
	var m0, m1 runtime.MemStats
	rs0 := readRuntime()
	runtime.ReadMemStats(&m0)
	steal0, cpu0, t1 := stealSeconds(), cpuSeconds(), time.Now()
	err = t.do("op", func() error { return b.run(t) })
	r.wall = time.Since(t1).Seconds()
	r.cpu = cpuSeconds() - cpu0
	r.steal = stealSeconds() - steal0
	runtime.ReadMemStats(&m1)
	rs1 := readRuntime()
	r.rssMB = peakRSSMB()
	if err != nil {
		return r, fmt.Errorf("simulation: %w", err)
	}
	r.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(r.ops)
	r.bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(r.ops)
	r.gcCPU, r.rtCPU, r.gcCycles = rs1[0]-rs0[0], rs1[1]-rs0[1], rs1[2]-rs0[2]
	if t != nil {
		r.events = t.events()
	}
	r.out = b.outcome()
	return r, nil
}

// setupFloor is the least process CPU time one set-up sample covers: a
// shorter set-up repeats until the sample reaches it, so CPU-clock
// granularity and runtime background work do not dominate sub-millisecond
// set-ups.
const setupFloor = 5e-3

// timedSetup sets up from a settled heap and returns the last batch and the
// process CPU seconds per set-up.
func timedSetup(w scenario, cfg config, workers int, t *tracer) (batch, float64, error) {
	runtime.GC()
	c0 := cpuSeconds()
	for n := 1; ; n++ {
		b, err := w.setup(cfg.seed, workers, t)
		if err != nil {
			return nil, 0, err
		}
		if d := cpuSeconds() - c0; d >= setupFloor {
			return b, d / float64(n), nil
		}
	}
}

// runtimeSamples are the Go runtime counters the traced run reports.
var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() [3]float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	var out [3]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		}
	}
	return out
}

// tally counts attempted and failed ops and keeps the first outcome every
// later one must repeat exactly.
type tally struct {
	attempted, failed int
	first             *outcome
}

func (ta *tally) add(r rep, err error, w io.Writer, label string) bool {
	ops := r.ops
	if ops == 0 {
		ops = 1 // a batch that failed to set up counts as one failed op
	}
	ta.attempted += ops
	fail := func(msg string) {
		ta.failed += ops
		fmt.Fprintf(w, "FAIL %s: %s\n", label, msg)
	}
	if err != nil {
		fail(err.Error())
		return false
	}
	if len(r.out.failed) > 0 {
		fail(strings.Join(r.out.failed, "; "))
		return false
	}
	if ta.first == nil {
		o := r.out
		ta.first = &o
		return true
	}
	if d := diffOutcome(*ta.first, r.out); d != "" {
		fail("output differs from the first simulation: " + d)
		return false
	}
	return true
}

// diffOutcome reports how two outcomes of the same inputs differ; the
// simulator is deterministic, so any difference is a failure.
func diffOutcome(a, b outcome) string {
	if a.executor != b.executor {
		return fmt.Sprintf("executor %s vs %s", a.executor, b.executor)
	}
	for _, m := range []map[string]float64{a.sim, a.layer} {
		for k, v := range m {
			w, ok := b.sim[k]
			if !ok {
				w = b.layer[k]
			}
			if v != w && !(math.IsNaN(v) && math.IsNaN(w)) {
				return fmt.Sprintf("%s %v vs %v", k, v, w)
			}
		}
	}
	return ""
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread formats a sample's median, minimum and maximum.
func spread(xs []float64) string {
	if len(xs) == 0 {
		return "n/a"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("median %.4f min %.4f max %.4f", median(s), s[0], s[len(s)-1])
}

// ratio returns a/b, or 0 where b was not measured.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}

// cpuSeconds returns the user plus system CPU time of every thread of the
// process. On a shared virtual machine it leaves out most of the time the
// hypervisor gives our CPUs to other guests (steal), which wall time counts.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stealSeconds returns the machine's CPU steal time so far, per CPU, from
// /proc/stat (0 where it cannot be read).
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	const userHz = 100 // USER_HZ, the unit of /proc/stat on Linux
	return ticks / userHz / float64(runtime.NumCPU())
}

// resetPeakRSS restarts the kernel's peak-RSS counter at the current RSS.
// Where the kernel refuses, peakRSSMB keeps reporting the process-wide peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the peak resident set size in MiB since the last
// resetPeakRSS (or since the process started).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// aluSink keeps the calibration loop's result live.
var aluSink uint64

// aluNs times a pure-ALU xorshift loop: the median ns per iteration of five
// passes. It moves only with the machine, so it tells drift from a change.
func aluNs() float64 {
	const n = 1 << 23
	var samples []float64
	for pass := 0; pass < 5; pass++ {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/n)
		aluSink += x
	}
	return median(samples)
}

// refEvents is the reference workload's length, and refSeconds its CPU time
// on an uncontended 2-vCPU Xeon virtual machine with Go 1.24.
const (
	refEvents  = 1 << 16
	refSeconds = 0.02
)

// refScale is the factor that takes a host time measured while the reference
// workload took ref seconds to the uncontended host: (refSeconds/ref)^e,
// where e is the workload's elasticity, the log-log slope of its time over
// the reference time under contention. The elasticities were fitted on
// 100-second traces of each workload (one simulation, then one reference
// run, repeated) as the exponents that best steadied the medians of 15- and
// 30-second windows and then checked on ten runs of each: 1 for fleet-jsq,
// 0.8 for fleet-chaos and 0.6 for paper-grid, whose core simulation is less
// memory-bound than the reference.
func refScale(ref, e float64) float64 {
	return math.Pow(refSeconds/ref, e)
}

// refEvent is one event of the reference workload.
type refEvent struct {
	at      uint64
	id      int
	payload []int
}

// refQueue is the reference workload's event queue, a binary min-heap on at.
type refQueue []*refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// refSink keeps the reference workload's result live.
var refSink int

// refProbe runs the reference workload from a settled heap and returns its
// CPU seconds. It is a fixed discrete-event loop shaped like the simulator's
// hot path: a heap of pending events, a map of per-entity state and a small
// allocation per event. Other guests of the host slow it when they slow a
// simulation (on the 2-vCPU VM the benchmark was tuned on, both by up to
// 1.8x in stretches of seconds to minutes, and the log times of a fleet-jsq
// simulation and the reference run around it correlated at 0.83), while the
// ALU loop barely moves. Scaling a simulation's times by refScale of the
// reference runs around it takes most of that contention out.
func refProbe() float64 {
	runtime.GC()
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	c0 := cpuSeconds()
	q := make(refQueue, 0, 4096)
	state := make(map[int]int)
	for i := 0; i < 4096; i++ {
		heap.Push(&q, &refEvent{at: next() % 1e6, id: i})
	}
	for i := 0; i < refEvents; i++ {
		e := heap.Pop(&q).(*refEvent)
		state[e.id%8192] += int(e.at)
		if next()%4 == 0 {
			delete(state, int(next()%8192))
		}
		heap.Push(&q, &refEvent{at: e.at + next()%1000, id: int(next() % 100000), payload: make([]int, 2+next()%6)})
	}
	refSink += len(state)
	return cpuSeconds() - c0
}
