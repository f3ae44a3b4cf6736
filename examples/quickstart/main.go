// Quickstart: simulate a 2-process multiprogrammed workload under the
// baseline FCFS scheduler of current GPUs and under the paper's Dynamic
// Spatial Sharing (DSS) policy with the context-switch preemption mechanism,
// and compare the multiprogram metrics.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro"
)

func main() {
	scale := flag.Int("scale", 1, "benchmark scale factor (1 = paper-faithful, larger = faster)")
	flag.Parse()
	suite := repro.Suite()

	// Pick a short app (spmv) and a long one (lbm): the pairing where
	// FCFS hurts the short app the most.
	var spmv, lbm *repro.App
	for _, a := range suite {
		switch a.Name {
		case "spmv":
			spmv = a.Scale(*scale)
		case "lbm":
			lbm = a.Scale(*scale)
		}
	}
	w := repro.Workload{Apps: []*repro.App{spmv, lbm}, HighPriority: -1}

	for _, cfg := range []struct {
		label string
		opts  repro.Options
	}{
		{"FCFS (current GPUs)", repro.Options{Policy: repro.PolicyFCFS}},
		{"DSS + context switch", repro.Options{Policy: repro.PolicyDSS, Mechanism: repro.MechanismContextSwitch}},
		{"DSS + draining", repro.Options{Policy: repro.PolicyDSS, Mechanism: repro.MechanismDrain}},
	} {
		res, err := repro.Run(w, cfg.opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s ===\n", cfg.label)
		for _, a := range res.Apps {
			fmt.Printf("  %-8s runs=%d turnaround=%v (isolated %v)  NTT=%.2f\n",
				a.Name, a.Runs, a.Turnaround, a.Isolated, a.NTT)
		}
		fmt.Printf("  ANTT=%.2f  STP=%.2f  fairness=%.2f  preemptions=%d\n\n",
			res.ANTT, res.STP, res.Fairness, res.Preemptions)
	}
}
