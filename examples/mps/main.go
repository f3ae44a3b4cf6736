// MPS compares the three ways of sharing a GPU that the paper discusses:
//
//   - FCFS with separate contexts (today's GPUs): kernels from different
//     processes serialize, one context owns the execution engine at a time.
//   - NVIDIA MPS (§2.1): a proxy process runs every client in one shared
//     context, recovering cross-process concurrency — but giving up memory
//     isolation and any per-process scheduling policy.
//   - The paper's hardware extensions with DSS: concurrency with isolation
//     intact, plus enforceable per-process resource allocation.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro"
)

func main() {
	scale := flag.Int("scale", 4, "benchmark scale factor (larger = faster)")
	flag.Parse()
	byName := map[string]*repro.App{}
	for _, a := range repro.Suite() {
		byName[a.Name] = a
	}
	apps := []*repro.App{
		byName["spmv"].Scale(*scale),
		byName["mri-q"].Scale(*scale),
		byName["histo"].Scale(*scale),
		byName["sad"].Scale(*scale),
	}
	w := repro.Workload{Apps: apps, HighPriority: -1}

	for _, cfg := range []struct {
		label string
		opts  repro.Options
	}{
		{"FCFS, separate contexts (current GPUs)", repro.Options{Policy: repro.PolicyFCFS}},
		{"MPS: one shared context, no isolation", repro.Options{Policy: repro.PolicyFCFS, MPS: true}},
		{"DSS + context switch (this paper)",
			repro.Options{Policy: repro.PolicyDSS, Mechanism: repro.MechanismContextSwitch}},
	} {
		res, err := repro.Run(w, cfg.opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s ===\n", cfg.label)
		fmt.Printf("  ANTT=%.2f  STP=%.2f  fairness=%.2f\n", res.ANTT, res.STP, res.Fairness)
		for _, a := range res.Apps {
			fmt.Printf("  %-8s NTT=%.2f\n", a.Name, a.NTT)
		}
		fmt.Println()
	}
	fmt.Println("MPS recovers concurrency but: clients share one GPU address space")
	fmt.Println("(no isolation) and per-process priorities cannot be enforced.")
	fmt.Println("DSS achieves concurrency with isolation and OS-controllable shares.")
}
