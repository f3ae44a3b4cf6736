// Command benchcheck gates benchmark regressions in CI: it parses `go test
// -bench` output (stdin or -in), compares each benchmark's ns/op and
// allocs/op against a committed JSON baseline, and exits non-zero when a
// metric regressed by more than the allowed fraction — or when a baselined
// benchmark did not run at all, so the gate cannot be dodged by narrowing
// the -bench pattern. Run with -update to (re)write the baseline from the
// measured numbers instead.
//
// ns/op depends on the host, so the baseline names a reference benchmark
// that runs no simulator code (BenchmarkHostCalibration). Every ns/op entry
// is first scaled by the reference's measured/recorded ratio, so a uniformly
// slower or faster host neither fails nor loosens the gate; a run without
// the reference fails. CI runs the short benchmarks with -count 5, and a
// repeated benchmark is gated on the median of its runs.
//
// Typical CI usage:
//
//	go test -run '^$' -bench 'IssueCompleteTB|PreemptLatency' -benchmem ./... \
//	    | go run ./cmd/benchcheck -baseline bench_baseline.json
//
// The host scaling cannot cancel every hardware difference (cache sizes and
// memory latency weigh differently on each benchmark), which is why the
// threshold is generous (25%); allocs/op — which is hardware-independent —
// is held to the same relative bound with only half-an-allocation of
// absolute slack and no scaling.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Measurement is one benchmark's gated metrics.
type Measurement struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Baseline is the committed reference file.
type Baseline struct {
	// Note documents how the numbers were recorded.
	Note string `json:"note,omitempty"`
	// Reference names the benchmark whose measured/recorded ns/op ratio
	// scales every ns/op entry before gating ("" = no scaling).
	Reference string `json:"reference,omitempty"`
	// Benchmarks maps the benchmark name (GOMAXPROCS suffix stripped) to
	// its reference measurement.
	Benchmarks map[string]Measurement `json:"benchmarks"`
}

// benchLine matches one `go test -bench` result line: name, iteration
// count, then value/unit pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

// stripProcs removes the trailing -N GOMAXPROCS suffix from a benchmark
// name, so baselines compare across machines with different core counts.
func stripProcs(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// parseBench extracts measurements from `go test -bench -benchmem` output.
// A benchmark repeated with -count reports the median of its runs, ns/op and
// allocs/op each taken separately, so one outlier run neither fails nor
// carries the gate.
func parseBench(r io.Reader) (map[string]Measurement, error) {
	runs := make(map[string][]Measurement)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := stripProcs(m[1])
		fields := strings.Fields(m[2])
		var meas Measurement
		seen := false
		for i := 0; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchcheck: bad value %q for %s", fields[i], name)
			}
			switch fields[i+1] {
			case "ns/op":
				meas.NsPerOp = val
				seen = true
			case "allocs/op":
				meas.AllocsPerOp = val
				seen = true
			}
		}
		if seen {
			runs[name] = append(runs[name], meas)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("benchcheck: no benchmark results in input")
	}
	out := make(map[string]Measurement, len(runs))
	for name, ms := range runs {
		out[name] = Measurement{
			NsPerOp:     median(ms, func(m Measurement) float64 { return m.NsPerOp }),
			AllocsPerOp: median(ms, func(m Measurement) float64 { return m.AllocsPerOp }),
		}
	}
	return out, nil
}

// median returns the median of metric over ms (the mean of the middle two
// for an even count).
func median(ms []Measurement, metric func(Measurement) float64) float64 {
	v := make([]float64, len(ms))
	for i, m := range ms {
		v[i] = metric(m)
	}
	sort.Float64s(v)
	h := len(v) / 2
	if len(v)%2 == 1 {
		return v[h]
	}
	return (v[h-1] + v[h]) / 2
}

// hostScale returns the measured/recorded ns/op ratio of the baseline's
// reference benchmark (1 without one), or a problem when the reference was
// not recorded or not measured.
func hostScale(base *Baseline, got map[string]Measurement) (float64, string) {
	if base.Reference == "" {
		return 1, ""
	}
	want, ok := base.Benchmarks[base.Reference]
	if !ok || want.NsPerOp <= 0 {
		return 0, fmt.Sprintf("%s: reference has no recorded ns/op in the baseline", base.Reference)
	}
	have, ok := got[base.Reference]
	if !ok || have.NsPerOp <= 0 {
		return 0, fmt.Sprintf("%s: reference not measured, so ns/op cannot be gated", base.Reference)
	}
	return have.NsPerOp / want.NsPerOp, ""
}

// check compares measured results against the baseline and returns one
// human-readable problem per violated bound. Every baselined benchmark must
// be present in the measurement, the reference included; ns/op entries are
// scaled by hostScale first.
func check(base *Baseline, got map[string]Measurement, maxRegress float64) []string {
	var problems []string
	scale, problem := hostScale(base, got)
	if problem != "" {
		problems = append(problems, problem)
	}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := base.Benchmarks[name]
		have, ok := got[name]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: baselined but not measured (did the -bench pattern change?)", name))
			continue
		}
		if scale > 0 && want.NsPerOp > 0 && have.NsPerOp > want.NsPerOp*scale*(1+maxRegress) {
			problems = append(problems, fmt.Sprintf("%s: %.1f ns/op regressed more than %.0f%% over baseline %.1f (host-scaled by %.3f)",
				name, have.NsPerOp, maxRegress*100, want.NsPerOp*scale, scale))
		}
		// A zero-alloc baseline is a hard gate, not a percentage: any
		// fraction of a baseline of zero is still zero, so a relative bound
		// alone could never fail it no matter how loose or tight
		// -max-regress is. The first new allocation fails outright.
		if want.AllocsPerOp == 0 {
			if have.AllocsPerOp > 0 {
				problems = append(problems, fmt.Sprintf("%s: %.1f allocs/op regressed over zero-alloc baseline",
					name, have.AllocsPerOp))
			}
			continue
		}
		// Half-an-allocation of absolute slack on non-zero baselines, so the
		// gate does not trip on formatting noise.
		if have.AllocsPerOp > want.AllocsPerOp*(1+maxRegress)+0.5 {
			problems = append(problems, fmt.Sprintf("%s: %.1f allocs/op regressed over baseline %.1f",
				name, have.AllocsPerOp, want.AllocsPerOp))
		}
	}
	return problems
}

func main() {
	var (
		baselinePath = flag.String("baseline", "bench_baseline.json", "committed baseline JSON")
		in           = flag.String("in", "", "benchmark output file (default: stdin)")
		maxRegress   = flag.Float64("max-regress", 0.25, "allowed fractional regression per metric")
		update       = flag.Bool("update", false, "write the measured numbers as the new baseline")
		note         = flag.String("note", "", "baseline note recorded with -update")
	)
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	got, err := parseBench(r)
	if err != nil {
		fatal(err)
	}

	if *update {
		// Keep the existing file's reference, and its note unless -note
		// replaces it.
		var base Baseline
		if data, err := os.ReadFile(*baselinePath); err == nil {
			if err := json.Unmarshal(data, &base); err != nil {
				fatal(fmt.Errorf("parsing %s: %w", *baselinePath, err))
			}
		}
		if *note != "" {
			base.Note = *note
		}
		base.Benchmarks = got
		data, err := json.MarshalIndent(&base, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchcheck: wrote %d benchmarks to %s\n", len(got), *baselinePath)
		return
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal(fmt.Errorf("reading baseline (seed it with -update): %w", err))
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", *baselinePath, err))
	}
	if len(base.Benchmarks) == 0 {
		fatal(fmt.Errorf("%s contains no benchmarks", *baselinePath))
	}

	problems := check(&base, got, *maxRegress)
	if scale, _ := hostScale(&base, got); base.Reference != "" && scale > 0 {
		fmt.Printf("benchcheck: host scale %.3f (%s measured/recorded)\n", scale, base.Reference)
	}
	for name, have := range got {
		if want, ok := base.Benchmarks[name]; ok {
			fmt.Printf("benchcheck: %-50s %10.1f ns/op (baseline %10.1f)  %6.1f allocs/op (baseline %6.1f)\n",
				name, have.NsPerOp, want.NsPerOp, have.AllocsPerOp, want.AllocsPerOp)
		}
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "benchcheck: FAIL:", p)
		}
		os.Exit(1)
	}
	fmt.Printf("benchcheck: %d baselined benchmarks within %.0f%% of the baseline\n",
		len(base.Benchmarks), *maxRegress*100)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck:", err)
	os.Exit(1)
}
