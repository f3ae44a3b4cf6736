// Opensystem demonstrates the open-system workload engine: instead of a
// fixed pair of applications replaying forever (the paper's closed
// methodology), requests arrive continuously — latency-sensitive "rt"
// inference probes with a completion deadline, mixed with batch requests
// replaying long-thread-block Parboil kernels — and each request admits a
// fresh process that is retired when its run completes.
//
// The walkthrough sweeps the preemption mechanism under preemptive priority
// scheduling and prints each class's percentile latencies and deadline-miss
// rate: draining recovers SMs only as fast as the batch kernels' long thread
// blocks retire, so the rt class blows its deadline under load, while the
// context-switch and adaptive mechanisms evict the victims at a bounded
// cost. It also shows the write/replay cycle: the synthesized stream is
// serialized and re-run byte-identically.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"reflect"
	"time"

	"repro"
)

func main() {
	scale := flag.Int("scale", 48, "benchmark scale factor (larger = faster)")
	rate := flag.Float64("rate", 0, "offered load in requests per second (0 = 1200 x scale, near saturation)")
	flag.Parse()
	if *rate <= 0 {
		*rate = 1200 * float64(*scale)
	}

	// The latency-sensitive request: a small idempotent inference-style
	// kernel, one wave across the chip, built through the public AppBuilder.
	infer, err := repro.NewApp("infer").
		Kernel(repro.KernelConfig{
			Name: "probe", ThreadBlocks: 13, TBTime: 5 * time.Microsecond,
			RegsPerTB: 4096, Idempotent: true,
		}).
		Launch("probe").Sync().
		Build()
	if err != nil {
		log.Fatal(err)
	}
	// The batch mix: long-thread-block Parboil victims — sgemm's 99µs
	// blocks are idempotent (flushable), tpacf's 73µs histogram blocks are
	// not (adaptive must context-switch them).
	sgemm, err := repro.AppByName("sgemm")
	if err != nil {
		log.Fatal(err)
	}
	tpacf, err := repro.AppByName("tpacf")
	if err != nil {
		log.Fatal(err)
	}

	spec := &repro.ArrivalSpec{
		Process: repro.ArrivalPoisson,
		Rate:    *rate,
		Horizon: repro.SimTime(5 * time.Millisecond),
		Classes: []repro.ArrivalClass{
			{Name: "rt", Priority: 1, Weight: 1, Deadline: repro.SimTime(60 * time.Microsecond),
				Apps: []repro.AppChoice{{App: infer, Weight: 1}}},
			{Name: "batch", Priority: 0, Weight: 2,
				Apps: []repro.AppChoice{{App: sgemm.Scale(*scale), Weight: 1}, {App: tpacf.Scale(*scale), Weight: 1}}},
		},
	}

	for _, mech := range []repro.MechanismKind{
		repro.MechanismDrain, repro.MechanismContextSwitch, repro.MechanismAdaptive,
	} {
		res, err := repro.RunOpen(repro.Options{
			Policy:    repro.PolicyPPQ,
			Mechanism: mech,
			Seed:      7,
			Arrivals:  spec,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== PPQ with %s ===\n", mech)
		fmt.Printf("  %d requests admitted, %d completed, %d in flight at %v (utilization %.0f%%, %d preemptions)\n",
			res.Admitted, res.Completed, res.InFlight, time.Duration(res.EndTime), res.Utilization*100, res.Stats.PreemptionsDone)
		for _, c := range res.Classes {
			fmt.Printf("  %-6s p50=%-10v p95=%-10v p99=%-10v", c.Name, time.Duration(c.Latency.Quantile(0.50)),
				time.Duration(c.Latency.Quantile(0.95)), time.Duration(c.Latency.Quantile(0.99)))
			if c.Name == "rt" {
				fmt.Printf("  deadline misses: %.0f%%", c.MissRate()*100)
			}
			fmt.Println()
		}
		fmt.Printf("  goodput: %.0f SLO-compliant requests/s\n\n", res.Goodput)
	}

	// Reproducible replay: serialize the synthesized stream and re-run it.
	o := repro.Options{Policy: repro.PolicyPPQ, Mechanism: repro.MechanismAdaptive, Seed: 7, Arrivals: spec}
	tr, err := spec.Synthesize(o)
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		log.Fatal(err)
	}
	jsonBytes := buf.Len()
	replayed, err := repro.ReadArrivals(&buf)
	if err != nil {
		log.Fatal(err)
	}
	direct, err := repro.RunOpen(o)
	if err != nil {
		log.Fatal(err)
	}
	ro := o
	ro.Arrivals = &repro.ArrivalSpec{Trace: replayed}
	again, err := repro.RunOpen(ro)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replay check: %d arrivals serialized to %d bytes of JSON, replayed result identical: %v\n",
		len(tr.Arrivals), jsonBytes, reflect.DeepEqual(direct, again))
}
