// Command experiments regenerates the tables and figures of the paper's
// evaluation section, plus the ablations documented in DESIGN.md. The
// hundreds of independent simulations behind each grid run concurrently on
// -parallel workers (default: all CPUs); every cell derives its randomness
// from its grid coordinates, so the tables are identical at any -parallel
// value.
//
// Examples:
//
//	experiments -exp table1
//	experiments -exp fig5 -n 10 -scale 1
//	experiments -exp dss -parallel 8
//	experiments -exp all -scale 8 -out results/ -parallel 1 # sequential
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/parboil"
	"repro/internal/profiling"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table1|table2|fig2|fig5|fig6|fig7|fig8|priority|dss|mechanisms|load|cluster|autoscale|resilience|memory|mps|static|slicing|ablations|all")
		gpusFlag = flag.String("gpus", "", "fleet sizes for -exp cluster (comma-separated, empty = 1,2,4)")
		n        = flag.Int("n", 10, "workloads per size")
		sizes    = flag.String("sizes", "2,4,6,8", "workload sizes")
		seed     = flag.Uint64("seed", 2014, "random seed")
		scale    = flag.Int("scale", 1, "benchmark scale factor (1 = paper-faithful, larger = faster)")
		minRuns  = flag.Int("runs", 3, "completed runs per application")
		parallel = flag.Int("parallel", runtime.NumCPU(), "concurrent simulations (1 = sequential; results are identical at any value)")
		parWin   = flag.Int("par-window", 0, "parallel-in-time workers inside each cluster simulation (0 = lockstep; results are identical at any value)")
		outDir   = flag.String("out", "", "directory for CSV output (empty = text only)")
		quiet    = flag.Bool("q", false, "suppress per-simulation progress")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	flag.Parse()
	// Out-of-range values would otherwise be replaced silently: fewer than
	// one workload, run or worker by the defaults (10, 3, NumCPU), a zero
	// seed by the default 2014, a scale below 1 by the paper-faithful apps,
	// and a negative window by lockstep.
	if *seed == 0 {
		fatal(fmt.Errorf("-seed must be at least 1, got 0"))
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"n", *n}, {"runs", *minRuns}, {"scale", *scale}, {"parallel", *parallel}} {
		if f.v < 1 {
			fatal(fmt.Errorf("-%s must be at least 1, got %d", f.name, f.v))
		}
	}
	if *parWin < 0 {
		fatal(fmt.Errorf("-par-window must be non-negative, got %d", *parWin))
	}
	// A workload draws distinct applications from the suite, so none can be
	// larger than it, and a fleet has at most cluster.MaxNodes GPUs.
	sizeList, suite := parseSizes(*sizes), len(parboil.Names())
	for _, v := range sizeList {
		if v > suite {
			fatal(fmt.Errorf("-sizes %d exceeds the suite's %d applications", v, suite))
		}
	}
	var gpus []int
	if *gpusFlag != "" {
		gpus = parseSizes(*gpusFlag)
	}
	for _, v := range gpus {
		if v > cluster.MaxNodes {
			fatal(fmt.Errorf("-gpus %d out of range [1, %d]", v, cluster.MaxNodes))
		}
	}

	var err error
	stopProf, err = profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		}
	}()

	opts := experiments.Options{
		Sizes:     sizeList,
		PerSize:   *n,
		Seed:      *seed,
		Scale:     *scale,
		MinRuns:   *minRuns,
		Workers:   *parallel,
		ParWindow: *parWin,
	}
	if !*quiet {
		opts.Progress = os.Stderr
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	emitted := 0

	emit := func(name string, t *experiments.Table) {
		fmt.Println(t.Render())
		if *outDir != "" {
			path := filepath.Join(*outDir, name+".csv")
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fatal(err)
			}
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if err := t.WriteCSV(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
		emitted++
	}

	if want("table1") {
		rows, err := experiments.RunTable1(opts)
		if err != nil {
			fatal(err)
		}
		emit("table1", experiments.Table1Table(rows))
	}
	if want("table2") {
		emit("table2", experiments.RunTable2())
	}
	if want("fig2") {
		r, err := experiments.RunFig2(*seed, opts)
		if err != nil {
			fatal(err)
		}
		emit("fig2", r.Table())
	}
	if want("fig5") || want("fig6") || *exp == "priority" {
		fig5, fig6, err := experiments.RunPriority(opts)
		if err != nil {
			fatal(err)
		}
		if want("fig5") || *exp == "priority" {
			emit("fig5", fig5.Table())
			fmt.Println(fig5.Chart(48))
		}
		if want("fig6") || *exp == "priority" {
			emit("fig6", fig6.Table())
		}
	}
	if want("fig7") || want("fig8") || *exp == "dss" {
		fig7, fig8, err := experiments.RunDSS(opts)
		if err != nil {
			fatal(err)
		}
		if want("fig7") || *exp == "dss" {
			for i, t := range fig7.Tables() {
				emit(fmt.Sprintf("fig7%c", 'a'+i), t)
			}
			fmt.Println(fig7.Chart(48))
		}
		if want("fig8") || *exp == "dss" {
			emit("fig8", fig8.Table())
			for _, size := range fig8.Sizes {
				if cp := fig8.CrossPoint(size); cp >= 0 {
					fmt.Printf("cross point (draining beats context switch) at %d procs: %.0f%% of workloads\n",
						size, cp*100)
				}
			}
			fmt.Println()
		}
	}
	if want("mechanisms") {
		r, err := experiments.RunMechanisms(opts)
		if err != nil {
			fatal(err)
		}
		emit("mechanisms", r.Table())
	}
	if want("load") {
		r, err := experiments.RunLoad(opts, nil)
		if err != nil {
			fatal(err)
		}
		emit("load", r.Table())
	}
	if want("cluster") {
		r, err := experiments.RunCluster(opts, gpus)
		if err != nil {
			fatal(err)
		}
		emit("cluster", r.Table())
	}
	if want("autoscale") {
		r, err := experiments.RunAutoscale(opts)
		if err != nil {
			fatal(err)
		}
		emit("autoscale", r.Table())
	}
	if want("resilience") {
		r, err := experiments.RunResilience(opts)
		if err != nil {
			fatal(err)
		}
		emit("resilience", r.Table())
	}
	if want("memory") {
		r, err := experiments.RunMemory(opts)
		if err != nil {
			fatal(err)
		}
		emit("memory", r.Table())
	}
	if want("mps") {
		r, err := experiments.RunMPS(opts)
		if err != nil {
			fatal(err)
		}
		emit("mps", r.Table())
	}
	if want("static") {
		r, err := experiments.RunStaticVsDSS(opts)
		if err != nil {
			fatal(err)
		}
		emit("static", r.Table())
	}
	if want("slicing") {
		r, err := experiments.RunSlicing(opts, nil)
		if err != nil {
			fatal(err)
		}
		emit("slicing", r.Table())
	}
	if want("ablations") {
		runAblations(opts, emit)
	}

	if emitted == 0 {
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
}

func runAblations(opts experiments.Options, emit func(string, *experiments.Table)) {
	if r, err := experiments.AblationPipelineDrain(opts, nil); err != nil {
		fatal(err)
	} else {
		emit("ablation-pipeline", r.Table())
	}
	if r, err := experiments.AblationJitter(opts, nil); err != nil {
		fatal(err)
	} else {
		emit("ablation-jitter", r.Table())
	}
	if r, err := experiments.AblationActiveLimit(opts, nil); err != nil {
		fatal(err)
	} else {
		emit("ablation-activeq", r.Table())
	}
	if r, err := experiments.AblationTokens(opts); err != nil {
		fatal(err)
	} else {
		emit("ablation-tokens", r.Table())
	}
	if t, err := experiments.AblationSharedMem(); err != nil {
		fatal(err)
	} else {
		emit("ablation-smem", t)
	}
}

func parseSizes(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			fatal(fmt.Errorf("bad size %q", part))
		}
		out = append(out, v)
	}
	return out
}

// stopProf flushes any active pprof capture; fatal must run it because
// os.Exit skips main's defer.
var stopProf = func() error { return nil }

func fatal(err error) {
	stopProf() //nolint:errcheck // exiting on the original error
	fmt.Fprintln(os.Stderr, errorLine(err))
	os.Exit(1)
}

// errorLine prefixes err with the command's name, unless the experiments
// package's own "experiments: " prefix already names it.
func errorLine(err error) string {
	msg := err.Error()
	if strings.HasPrefix(msg, "experiments: ") {
		return msg
	}
	return "experiments: " + msg
}
