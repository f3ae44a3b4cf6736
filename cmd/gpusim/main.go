// Command gpusim simulates one multiprogrammed GPU workload and prints the
// paper's metrics (NTT per application, ANTT, STP, fairness). With -reps N
// it simulates N replicas of the workload under derived seeds concurrently
// (-parallel workers) and reports the per-replica metrics plus their mean,
// which quantifies seed sensitivity.
//
// With -arrivals the simulation becomes an open system: instead of the apps
// looping forever, requests arrive continuously (a synthetic Poisson, bursty
// or heavy-tailed stream over the apps, or a replayed JSON arrival trace),
// each admitting a fresh process that is retired on completion, and the
// report shows per-class percentile latencies, deadline-miss rates and
// goodput.
//
// With -gpus N (N > 1) the open system becomes a fleet: N identical GPUs
// run behind the -dispatch placement policy (round-robin,
// join-shortest-queue, predicted-backlog least-loaded, class-affinity, or
// seeded power-of-two-choices), and the report adds each GPU's share of the
// work. -par-window picks the executor; either one prints the same report
// (see repro.ClusterResult.Executor).
//
// -cluster loads the fleet's topology from JSON: its size or heterogeneous
// node types and dispatch policy (overriding -gpus/-dispatch), and the only
// spelling of fleet policy — the autoscale, faults and resilience stanzas
// (durations in integer nanoseconds; see README "Topology JSON").
//
// Examples:
//
//	gpusim -apps spmv,lbm,mri-gridding -policy dss -mech context-switch -hp 0
//	gpusim -apps spmv,sgemm -policy dss -reps 8 -parallel 4
//	gpusim -apps spmv,lbm -hp 0 -policy ppq -mech adaptive -scale 48 -arrivals poisson -rate 20000
//	gpusim -apps spmv,lbm -scale 48 -arrivals stream.json   # replay a saved stream
//	gpusim -apps spmv,lbm -hp 0 -scale 48 -arrivals poisson -rate 60000 -gpus 4 -dispatch jsq
//	gpusim -apps spmv,lbm -hp 0 -scale 48 -arrivals poisson -rate 60000 -cluster topology.json
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/profiling"
)

// dispatchNames joins the supported cluster dispatch policies for flag help
// and errors, so a new policy reaches both automatically.
func dispatchNames() string {
	var names []string
	for _, k := range repro.DispatchKinds() {
		names = append(names, string(k))
	}
	return strings.Join(names, "|")
}

func main() {
	var (
		appsFlag = flag.String("apps", "spmv,sgemm", "comma-separated benchmark names (see -list)")
		policy   = flag.String("policy", "fcfs", "scheduling policy: fcfs|npq|ppq|ppq-shared|dss|timeslice")
		mech     = flag.String("mech", "", "preemption mechanism: context-switch|drain|flush|adaptive|none (default per policy)")
		hp       = flag.Int("hp", -1, "index of the high-priority application (-1 = none)")
		runs     = flag.Int("runs", 3, "completed runs required per application")
		seed     = flag.Uint64("seed", 1, "random seed")
		scale    = flag.Int("scale", 1, "scale factor to shrink benchmarks (1 = paper-faithful)")
		jitter   = flag.Float64("jitter", 0.30, "thread-block time variability (0-1)")
		timeline = flag.Bool("timeline", false, "print an ASCII SM timeline")
		list     = flag.Bool("list", false, "list available benchmarks and exit")
		prioDMA  = flag.Bool("priority-dma", false, "priority scheduling on the transfer engine")
		arrFlag  = flag.String("arrivals", "", "open-system mode: poisson|bursty|heavytail, or a path to an arrival-trace JSON")
		rate     = flag.Float64("rate", 20000, "open-system offered load in requests per second")
		horizon  = flag.Duration("horizon", 5*time.Millisecond, "open-system arrival injection window")
		deadline = flag.Duration("deadline", 2*time.Millisecond, "completion deadline of the high-priority class (0 = none)")
		arrOut   = flag.String("arrivals-out", "", "write the (generated or replayed) arrival stream to this JSON file")
		phasesF  = flag.String("phases", "", "arrival-rate phases as factor:duration pairs, e.g. 0.3:1ms,2.2:500us,0.3:1ms (cycles until the horizon; empty = constant rate)")
		gpus     = flag.Int("gpus", 1, "number of simulated GPUs; with -arrivals >1 runs the fleet behind -dispatch")
		dispatch = flag.String("dispatch", "round-robin", "cluster dispatch policy: "+dispatchNames())
		clusterF = flag.String("cluster", "", "cluster topology JSON file (fleet size, dispatch, node types and the autoscale, faults and resilience stanzas); the fields it carries override -gpus/-dispatch")
		hbmF     = flag.String("hbm", "", "per-GPU device-memory capacity, e.g. 512MiB or 4GiB (default: the GPU spec's); admitted working sets are charged against it and oversubscription blocks admission")
		swapF    = flag.Bool("swap", false, "swap oversubscribed contexts to host memory over PCIe instead of blocking admission (needs request working sets; see -hbm)")
		parWin   = flag.Int("par-window", 0, "cluster runs: execute GPU engines in parallel-in-time windows on this many workers (0 = lockstep; output is byte-identical either way)")
		warmup   = flag.Duration("warm-start", 0, "cluster runs: play a warmup stream of this duration first and carry the dispatcher's learned state into the measured run")
		reps     = flag.Int("reps", 1, "simulate this many replicas of the workload under derived seeds")
		parallel = flag.Int("parallel", runtime.NumCPU(), "concurrent replica simulations")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	flag.Parse()

	// Reject out-of-range numeric flags up front with a clear message: a
	// non-positive or non-finite rate or a non-positive horizon would
	// synthesize an empty stream (or spin forever), zero GPUs has no
	// machine to simulate, a scale below 1 would silently run the
	// paper-faithful apps, fewer than one run would silently run the
	// default three, fewer than one replica or worker would silently run
	// one replica or NumCPU workers, a zero seed would silently run seed 1,
	// and a negative worker count or jitter has no meaning.
	if *seed == 0 {
		fatal(fmt.Errorf("-seed must be at least 1, got 0"))
	}
	if *gpus < 1 {
		fatal(fmt.Errorf("-gpus must be at least 1, got %d", *gpus))
	}
	if *scale < 1 {
		fatal(fmt.Errorf("-scale must be at least 1, got %d", *scale))
	}
	if *runs < 1 {
		fatal(fmt.Errorf("-runs must be at least 1, got %d", *runs))
	}
	if *reps < 1 {
		fatal(fmt.Errorf("-reps must be at least 1, got %d", *reps))
	}
	if *parallel < 1 {
		fatal(fmt.Errorf("-parallel must be at least 1, got %d", *parallel))
	}
	if *jitter < 0 {
		fatal(fmt.Errorf("-jitter must be in [0, 1], got %g", *jitter))
	}
	if !(*rate > 0) || math.IsInf(*rate, 1) {
		fatal(fmt.Errorf("-rate must be positive and finite (requests per simulated second), got %g", *rate))
	}
	if *horizon <= 0 {
		fatal(fmt.Errorf("-horizon must be positive, got %v", *horizon))
	}
	if *parWin < 0 {
		fatal(fmt.Errorf("-par-window must be non-negative, got %d", *parWin))
	}
	var hbmBytes int64
	if *hbmF != "" {
		b, err := parseBytes(*hbmF)
		if err != nil || b <= 0 {
			fatal(fmt.Errorf("-hbm must be a positive size (e.g. 512MiB or 4GiB), got %q", *hbmF))
		}
		hbmBytes = b
	}
	if *warmup < 0 {
		fatal(fmt.Errorf("-warm-start must be non-negative, got %v", *warmup))
	}

	var err error
	stopProf, err = profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "gpusim:", err)
		}
	}()

	if *list {
		for _, n := range repro.Names() {
			a, _ := repro.AppByName(n)
			fmt.Printf("%-14s kernels:%-7s app:%s\n", n, a.Class1, a.Class2)
		}
		return
	}

	var apps []*repro.App
	for _, name := range strings.Split(*appsFlag, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, err := repro.AppByName(name)
		if err != nil {
			fatal(err)
		}
		if *scale > 1 {
			a = a.Scale(*scale)
		}
		apps = append(apps, a)
	}
	if len(apps) == 0 {
		fatal(fmt.Errorf("no applications given"))
	}
	// An index past the apps would silently run with no prioritized one.
	if *hp < -1 || *hp >= len(apps) {
		fatal(fmt.Errorf("-hp must be -1 (none) or an application index in [0, %d), got %d", len(apps), *hp))
	}

	// Options reads a zero Jitter as its 0.30 default and a negative one as
	// none, so -jitter 0 passes the negative spelling.
	jit := *jitter
	if jit == 0 {
		jit = -1
	}
	opts := repro.Options{
		Policy:         repro.PolicyKind(*policy),
		Mechanism:      repro.MechanismKind(*mech),
		MinRuns:        *runs,
		Seed:           *seed,
		Jitter:         jit,
		RecordTimeline: *timeline,
		PriorityDMA:    *prioDMA,
		Parallel:       *parallel,
	}
	opts.Cluster = repro.ClusterConfig{Nodes: *gpus, Dispatch: repro.DispatchKind(*dispatch)}
	opts.ParWindow = *parWin
	opts.WarmStart = *warmup
	opts.HBM = hbmBytes
	opts.Swap = *swapF
	// Validate the policy name up front: a typo should fail identically
	// whether or not this run's fleet size makes the dispatcher matter.
	if !slices.Contains(repro.DispatchKinds(), opts.Cluster.Dispatch) {
		fatal(fmt.Errorf("unknown -dispatch policy %q (use %s)", *dispatch, dispatchNames()))
	}
	if *clusterF != "" {
		f, err := os.Open(*clusterF)
		if err != nil {
			fatal(err)
		}
		topo, err := repro.ReadClusterConfig(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		// The file replaces -gpus (it must carry the fleet size); -dispatch
		// stands in for a dispatch key it leaves out.
		if topo.Dispatch == "" {
			topo.Dispatch = opts.Cluster.Dispatch
		}
		opts.Cluster = topo
	}
	c := opts.Cluster
	fleet := c.Nodes > 1 || len(c.NodeTypes) > 0 || c.Autoscale != nil || c.Faults != nil ||
		c.Resilience != nil || opts.HBM > 0 || opts.Swap
	if fleet && *arrFlag == "" {
		fatal(fmt.Errorf("a fleet (-gpus/-hbm/-swap or a -cluster file) needs -arrivals: the cluster layer serves open request streams"))
	}
	if *arrFlag != "" {
		if *timeline || *reps > 1 {
			fatal(fmt.Errorf("-arrivals is not compatible with -timeline or -reps"))
		}
		// The deadline default belongs to the high-priority class; without
		// -hp there is a single best-effort class, which gets a deadline
		// only when the user explicitly asked for one.
		deadlineSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "deadline" {
				deadlineSet = true
			}
		})
		if *hp < 0 && !deadlineSet {
			*deadline = 0
		}
		runOpen(apps, *hp, *arrFlag, *rate, *horizon, *deadline, *arrOut, parsePhases(*phasesF), fleet, opts)
		return
	}
	if *reps > 1 {
		if *timeline {
			fatal(fmt.Errorf("-timeline is not supported with -reps > 1 (run a single replica to render a timeline)"))
		}
		runReplicas(apps, *hp, *reps, opts)
		return
	}
	res, err := repro.Run(repro.Workload{Apps: apps, HighPriority: *hp}, opts)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("policy=%s mechanism=%s apps=%d seed=%d\n", *policy, orDefault(*mech, "auto"), len(apps), *seed)
	fmt.Printf("simulated time: %v   completed: %v   utilization: %.1f%%   preemptions: %d   ctx saved: %s   wasted: %v\n\n",
		res.EndTime, res.Completed, res.Utilization*100, res.Preemptions, bytesHuman(res.ContextSavedBytes), res.WastedWork)
	fmt.Printf("%-14s %5s  %14s  %14s  %8s  %s\n", "app", "runs", "turnaround", "isolated", "NTT", "flags")
	for _, a := range res.Apps {
		flags := ""
		if a.HighPriority {
			flags += "high-priority "
		}
		if a.Starved {
			flags += "STARVED"
		}
		fmt.Printf("%-14s %5d  %14v  %14v  %8.2f  %s\n", a.Name, a.Runs, a.Turnaround, a.Isolated, a.NTT, flags)
	}
	fmt.Printf("\nANTT=%.3f  STP=%.3f  fairness=%.3f\n", res.ANTT, res.STP, res.Fairness)

	if *timeline {
		fmt.Println()
		fmt.Print(repro.RenderTimeline(res.Timeline, 13, 120))
	}
}

// runOpen simulates an open-system arrival workload over the given apps:
// either a synthetic stream (mode names the inter-arrival process) or a
// replayed arrival-trace file. With -hp set, apps[hp] forms a high-priority
// "rt" class carrying the -deadline budget and the remaining apps the
// best-effort "batch" class; without it every app joins one "open" class.
// A fleet runs on the cluster layer, anything else on one GPU.
func runOpen(apps []*repro.App, hp int, mode string, rate float64, horizon, deadline time.Duration, outPath string, phases []repro.ArrivalPhase, fleet bool, opts repro.Options) {
	spec := &repro.ArrivalSpec{Rate: rate, Horizon: repro.SimTime(horizon), Phases: phases}
	switch mode {
	case "poisson", "bursty", "heavytail":
		spec.Process = repro.ArrivalProcess(mode)
		if hp >= 0 {
			rest := make([]*repro.App, 0, len(apps)-1)
			rest = append(rest, apps[:hp]...)
			rest = append(rest, apps[hp+1:]...)
			if len(rest) == 0 {
				rest = apps
			}
			spec.Classes = []repro.ArrivalClass{
				{Name: "rt", Priority: 1, Weight: 1, Deadline: repro.SimTime(deadline), Apps: uniform(apps[hp : hp+1])},
				{Name: "batch", Priority: 0, Weight: 3, Apps: uniform(rest)},
			}
		} else {
			spec.Classes = []repro.ArrivalClass{
				{Name: "open", Priority: 0, Weight: 1, Deadline: repro.SimTime(deadline), Apps: uniform(apps)},
			}
		}
	default:
		f, err := os.Open(mode)
		if err != nil {
			fatal(fmt.Errorf("-arrivals %q is neither a process name (poisson|bursty|heavytail) nor a readable trace: %w", mode, err))
		}
		tr, err := repro.ReadArrivals(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		spec.Trace = tr
	}
	opts.Arrivals = spec

	if outPath != "" {
		tr, err := spec.Synthesize(opts)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(outPath)
		if err != nil {
			fatal(err)
		}
		if err := tr.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d arrivals to %s\n", len(tr.Arrivals), outPath)
	}

	if fleet {
		runCluster(mode, opts)
		return
	}
	res, err := repro.RunOpen(opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("open system: policy=%s mechanism=%s arrivals=%s seed=%d\n",
		opts.Policy, orDefault(string(opts.Mechanism), "auto"), mode, opts.Seed)
	fmt.Printf("simulated time: %v   admitted: %d   completed: %d   in-flight: %d   utilization: %.1f%%   preemptions: %d\n\n",
		time.Duration(res.EndTime), res.Admitted, res.Completed, res.InFlight, res.Utilization*100, res.Stats.PreemptionsDone)
	printClassTable(res.Classes, res.Goodput)
}

// uniform weighs every app of a class's mix equally.
func uniform(apps []*repro.App) []repro.AppChoice {
	out := make([]repro.AppChoice, len(apps))
	for i, a := range apps {
		out[i] = repro.AppChoice{App: a, Weight: 1}
	}
	return out
}

// printClassTable prints the per-class SLO table and goodput footer shared
// by the open-system and cluster reports.
func printClassTable(classes []repro.ClassReport, goodput float64) {
	fmt.Printf("%-8s %9s %6s %8s %12s %12s %12s %12s %10s\n",
		"class", "admitted", "done", "inflight", "wait-p95", "lat-p50", "lat-p95", "lat-p99", "miss-rate")
	for _, c := range classes {
		fmt.Printf("%-8s %9d %6d %8d %12v %12v %12v %12v %10.3f\n",
			c.Name, c.Admitted, c.Completed, c.InFlight(), time.Duration(c.Wait.Quantile(0.95)),
			time.Duration(c.Latency.Quantile(0.50)), time.Duration(c.Latency.Quantile(0.95)),
			time.Duration(c.Latency.Quantile(0.99)), c.MissRate())
	}
	fmt.Printf("\ngoodput=%.0f req/s (SLO-compliant completions per simulated second)\n", goodput)
}

// runCluster simulates the open-system stream on a fleet of GPUs behind the
// configured dispatch policy and prints the fleet rollup plus each GPU's
// share of the work.
func runCluster(mode string, opts repro.Options) {
	res, err := repro.RunCluster(opts)
	if err != nil {
		fatal(err)
	}
	if opts.ParWindow > 0 && res.Executor == repro.ExecutorLockstep {
		// On stderr so the report itself stays byte-identical across
		// -par-window values, which the executors guarantee for the numbers.
		fmt.Fprintf(os.Stderr, "note: -par-window %d requested but the run executed in lockstep: the lifecycle manager "+
			"(the -cluster file's resilience stanza) couples the GPUs through the control engine mid-window\n", opts.ParWindow)
	}
	fmt.Printf("cluster: gpus=%d dispatch=%s policy=%s mechanism=%s arrivals=%s seed=%d",
		len(res.Nodes), res.Dispatcher, opts.Policy, orDefault(string(opts.Mechanism), "auto"), mode, opts.Seed)
	if res.Autoscaler != "" {
		fmt.Printf(" autoscale=%s", res.Autoscaler)
	}
	fmt.Println()
	fmt.Printf("simulated time: %v   admitted: %d   completed: %d   in-flight: %d   lost: %d   mean utilization: %.1f%%   preemptions: %d\n",
		time.Duration(res.EndTime), res.Admitted, res.Completed, res.InFlight, res.Lost, res.Utilization*100, res.Stats.PreemptionsDone)
	fmt.Printf("fleet: node-seconds: %.6f   scale-ups: %d   drains: %d   kills: %d   restarts: %d   lost work: %v\n",
		res.NodeSeconds, res.ScaleUps, res.Drains, res.Kills, res.Restarts, time.Duration(res.LostWork))
	if res.Spills > 0 || res.SwapOutBytes > 0 {
		fmt.Printf("memory: spills: %d   swap-ins: %d   swapped out: %s   swapped in: %s   lost to kills: %s\n",
			res.Spills, res.SwapIns, bytesHuman(res.SwapOutBytes), bytesHuman(res.SwapInBytes), bytesHuman(res.SwapLostBytes))
	}
	if res.Requests > 0 {
		fmt.Printf("lifecycle: requests: %d   completed: %d   dropped: %d   shed: %d   in-flight: %d\n",
			res.Requests, res.ReqCompleted, res.Dropped, res.Shed, res.ReqInFlight)
		fmt.Printf("attempts: timeouts: %d   retries: %d   hedges: %d   canceled: %d   rejected: %d   breaker trips: %d\n",
			res.TimedOut, res.Retries, res.Hedges, res.Canceled, res.Rejected, res.BreakerTrips)
	}
	fmt.Println()
	fmt.Printf("%-6s %-9s %9s %6s %8s %6s %8s %7s %12s %12s\n",
		"gpu", "state", "admitted", "done", "inflight", "lost", "missed", "incarn", "uptime", "utilization")
	for i, n := range res.Nodes {
		fmt.Printf("%-6d %-9s %9d %6d %8d %6d %8d %7d %12v %11.1f%%\n",
			i, n.State, n.Admitted, n.Completed, n.InFlight, n.Lost, n.Missed, n.Incarnations, time.Duration(n.UpTime), n.Utilization*100)
	}
	fmt.Println()
	printClassTable(res.Classes, res.Goodput)
}

// runReplicas simulates reps copies of the workload concurrently, each with
// a seed derived from the base seed and the replica index, and prints the
// per-replica multiprogram metrics plus their mean.
func runReplicas(apps []*repro.App, hp, reps int, opts repro.Options) {
	ws := make([]repro.Workload, reps)
	for i := range ws {
		ws[i] = repro.Workload{Apps: apps, HighPriority: hp}
	}
	opts.OnProgress = func(done, total int) {
		fmt.Fprintf(os.Stderr, "\rsimulated %d/%d replicas", done, total)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
	results, err := repro.RunMany(context.Background(), ws, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("policy=%s mechanism=%s apps=%d reps=%d parallel=%d base seed=%d\n\n",
		opts.Policy, orDefault(string(opts.Mechanism), "auto"), len(apps), reps, opts.Parallel, opts.Seed)
	fmt.Printf("%-8s %9s %9s %10s %12s %12s\n", "replica", "ANTT", "STP", "fairness", "end", "completed")
	var antt, stp, fair float64
	for i, r := range results {
		fmt.Printf("%-8d %9.3f %9.3f %10.3f %12v %12v\n", i, r.ANTT, r.STP, r.Fairness, r.EndTime, r.Completed)
		antt += r.ANTT
		stp += r.STP
		fair += r.Fairness
	}
	n := float64(len(results))
	fmt.Printf("%-8s %9.3f %9.3f %10.3f\n", "mean", antt/n, stp/n, fair/n)
}

// parsePhases parses the -phases flag: comma-separated factor:duration
// pairs, each scaling the base arrival rate for its duration, cycling.
func parsePhases(s string) []repro.ArrivalPhase {
	if s == "" {
		return nil
	}
	var out []repro.ArrivalPhase
	for _, part := range strings.Split(s, ",") {
		factor, dur, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			fatal(fmt.Errorf("-phases wants factor:duration pairs, got %q", part))
		}
		f, err := strconv.ParseFloat(factor, 64)
		if err != nil {
			fatal(fmt.Errorf("-phases %q: bad rate factor: %w", part, err))
		}
		d, err := time.ParseDuration(dur)
		if err != nil {
			fatal(fmt.Errorf("-phases %q: bad duration: %w", part, err))
		}
		out = append(out, repro.ArrivalPhase{RateFactor: f, Duration: repro.SimTime(d)})
	}
	return out
}

func orDefault(s, d string) string {
	if s == "" {
		return d
	}
	return s
}

// parseBytes parses a byte size with an optional binary suffix: "512MiB",
// "4GiB", "65536" (plain bytes).
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "GiB"):
		mult, s = 1<<30, strings.TrimSuffix(s, "GiB")
	case strings.HasSuffix(s, "MiB"):
		mult, s = 1<<20, strings.TrimSuffix(s, "MiB")
	case strings.HasSuffix(s, "KiB"):
		mult, s = 1<<10, strings.TrimSuffix(s, "KiB")
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, err
	}
	// Go leaves a float-to-int conversion out of int64's range
	// implementation-defined (amd64 yields MinInt64, arm64 saturates), so
	// NaN, infinities and sizes of 8 EiB or more are rejected before it.
	b := v * float64(mult)
	if !(math.Abs(b) < 1<<63) {
		return 0, fmt.Errorf("byte size %q out of range", s)
	}
	return int64(b), nil
}

func bytesHuman(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}

// stopProf flushes any active pprof capture; fatal must run it because
// os.Exit skips main's defer.
var stopProf = func() error { return nil }

func fatal(err error) {
	stopProf() //nolint:errcheck // exiting on the original error
	fmt.Fprintln(os.Stderr, "gpusim:", err)
	os.Exit(1)
}
