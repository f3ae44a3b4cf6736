// Spatial demonstrates Dynamic Spatial Sharing (§3.4): four processes share
// the 13 SMs with equal token budgets (3+3+3+4 after remainder assignment);
// the policy dynamically repartitions as kernels arrive and finish. The
// example prints per-application metrics and the SM timeline, where the
// spatial partition is visible as distinct letters across SM rows.
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
	suite := repro.Suite()
	byName := map[string]*repro.App{}
	for _, a := range suite {
		byName[a.Name] = a
	}
	// Two medium, one short and one long application; scaled to keep the
	// timeline readable.
	apps := []*repro.App{
		byName["histo"].Scale(*scale),
		byName["cutcp"].Scale(*scale),
		byName["spmv"].Scale(*scale),
		byName["sad"].Scale(*scale),
	}

	for _, mech := range []repro.MechanismKind{repro.MechanismContextSwitch, repro.MechanismDrain} {
		res, err := repro.Run(
			repro.Workload{Apps: apps, HighPriority: -1},
			repro.Options{
				Policy:         repro.PolicyDSS,
				Mechanism:      mech,
				RecordTimeline: true,
				MinRuns:        1,
			},
		)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== DSS equal sharing, %s mechanism ===\n", mech)
		for _, a := range res.Apps {
			fmt.Printf("  %-8s runs=%d turnaround=%v NTT=%.2f\n", a.Name, a.Runs, a.Turnaround, a.NTT)
		}
		fmt.Printf("  ANTT=%.2f  STP=%.2f  fairness=%.2f  preemptions=%d  ctx-saved=%d KiB\n",
			res.ANTT, res.STP, res.Fairness, res.Preemptions, res.ContextSavedBytes/1024)
		fmt.Print(repro.RenderTimeline(res.Timeline, 13, 110))
		fmt.Println()
	}
}
