// Cluster demonstrates the multi-GPU fleet layer: the same open request
// stream — latency-sensitive "rt" inference probes with a completion
// deadline mixed with long-thread-block batch requests — served by 1, 2 and
// 4 identical GPUs at an offered load that overloads one machine.
//
// Two things separate the fleets. First, capacity: one GPU saturates — it
// drags the 5ms arrival window out to ~3x its length working off batch
// backlog, serves a third of the offered goodput, and puts the rt tail over
// its deadline — while four GPUs serve the stream at speed and cut rt p99
// by more than 2x. Second, placement: at 4 GPUs the walkthrough compares
// blind round-robin dispatch against join-shortest-queue — round-robin
// keeps landing requests behind skewed backlogs (head-of-line blocking no
// per-GPU mechanism can fix), so JSQ wins the rt-class tail at identical
// hardware cost.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	scale := flag.Int("scale", 48, "benchmark scale factor (larger = faster)")
	rate := flag.Float64("rate", 0, "offered load in requests per second (0 = 1600 x scale, overloads one GPU)")
	flag.Parse()
	if *rate <= 0 {
		*rate = 1600 * float64(*scale)
	}

	// The latency-sensitive request: a small idempotent inference-style
	// kernel, one wave across the chip.
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
	// The batch mix: long-thread-block Parboil victims.
	sgemm, err := repro.AppByName("sgemm")
	if err != nil {
		log.Fatal(err)
	}
	lbm, err := repro.AppByName("lbm")
	if err != nil {
		log.Fatal(err)
	}

	spec := &repro.ArrivalSpec{
		Process: repro.ArrivalPoisson,
		Rate:    *rate,
		Horizon: repro.SimTime(5 * time.Millisecond),
		Classes: []repro.ArrivalClass{
			{Name: "rt", Priority: 1, Weight: 1, Deadline: repro.SimTime(30 * time.Microsecond),
				Apps: []repro.AppChoice{{App: infer, Weight: 1}}},
			{Name: "batch", Priority: 0, Weight: 2,
				Apps: []repro.AppChoice{{App: sgemm.Scale(*scale), Weight: 1}, {App: lbm.Scale(*scale), Weight: 1}}},
		},
	}

	run := func(gpus int, dispatch repro.DispatchKind) *repro.ClusterResult {
		res, err := repro.RunCluster(repro.Options{
			Policy:    repro.PolicyPPQ,
			Mechanism: repro.MechanismAdaptive,
			Seed:      7,
			Arrivals:  spec,
			Cluster:   repro.ClusterConfig{Nodes: gpus, Dispatch: dispatch},
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	rt := func(res *repro.ClusterResult) *repro.ClassReport { return &res.Classes[0] }

	fmt.Printf("offered load: %.0f req/s (overloads one GPU); PPQ + adaptive preemption on every GPU\n\n", *rate)

	// Part 1: fleet scaling under JSQ — capacity buys back the tail. The
	// "end" column is the overload tell: one GPU works the 5ms arrival
	// window off long after it closes, so its goodput is a fraction of the
	// offered load.
	fmt.Println("=== 1 vs 2 vs 4 GPUs, join-shortest-queue dispatch ===")
	fmt.Printf("%-5s %9s %6s %12s %12s %12s %10s %14s\n",
		"gpus", "admitted", "done", "end", "rt-p50", "rt-p99", "rt-miss", "goodput(req/s)")
	var jsq4 *repro.ClusterResult // reused in part 2: identical runs are deterministic
	for _, gpus := range []int{1, 2, 4} {
		res := run(gpus, repro.DispatchJSQ)
		if gpus == 4 {
			jsq4 = res
		}
		c := rt(res)
		fmt.Printf("%-5d %9d %6d %12v %12v %12v %9.1f%% %14.0f\n",
			gpus, res.Admitted, res.Completed, time.Duration(res.EndTime).Round(10*time.Microsecond),
			time.Duration(c.Latency.Quantile(0.50)), time.Duration(c.Latency.Quantile(0.99)), c.MissRate()*100, res.Goodput)
	}

	// Part 2: placement at fixed hardware — JSQ vs blind round-robin.
	fmt.Println("\n=== 4 GPUs: round-robin vs join-shortest-queue ===")
	fmt.Printf("%-12s %12s %12s %10s %s\n", "dispatch", "rt-p99", "rt-wait-p95", "rt-miss", "per-gpu admitted")
	var rr, jsq *repro.ClassReport
	for _, d := range []repro.DispatchKind{repro.DispatchRoundRobin, repro.DispatchJSQ} {
		res := jsq4
		if d == repro.DispatchRoundRobin {
			res = run(4, d)
		}
		c := rt(res)
		shares := ""
		for _, n := range res.Nodes {
			shares += fmt.Sprintf("%d ", n.Admitted)
		}
		fmt.Printf("%-12s %12v %12v %9.1f%% %s\n", d, time.Duration(c.Latency.Quantile(0.99)),
			time.Duration(c.Wait.Quantile(0.95)), c.MissRate()*100, shares)
		if d == repro.DispatchRoundRobin {
			rr = c
		} else {
			jsq = c
		}
	}
	if rrP99, jsqP99 := rr.Latency.Quantile(0.99), jsq.Latency.Quantile(0.99); jsqP99 < rrP99 {
		fmt.Printf("\nJSQ beats round-robin on rt-class p99 by %v at identical hardware cost:\n", time.Duration(rrP99-jsqP99))
		fmt.Println("round-robin ignores backlog, so every fourth request lands behind the")
		fmt.Println("most loaded GPU — queueing delay no per-GPU preemption mechanism can fix.")
	} else {
		fmt.Println("\nunexpected: round-robin matched JSQ at this load (try a higher -rate)")
	}
}
