// Resilience demonstrates the request-lifecycle layer on a faulty fleet:
// the same open request stream — latency-sensitive "rt" probes with a
// completion deadline mixed with long-thread-block batch requests — served
// by four GPUs under aggressive fault injection (GPU kills mid-request),
// with three lifecycle policies:
//
//  1. none: the plain fleet. A killed GPU's in-flight requests are
//     re-dispatched immediately and unconditionally — no backoff, no budget,
//     no limit. It recovers the work, but by the exact policy that melts
//     down into a retry storm once the fleet is also overloaded.
//  2. deadline-only: arming the lifecycle layer replaces the unconditional
//     re-dispatch with an explicit retry decision; with no retry policy the
//     decision is "don't", so kill losses become visible, accounted drops.
//  3. guarded: the full treatment. Failed attempts retry on another GPU
//     under an exponential-backoff policy bounded by a token-bucket retry
//     budget; slow attempts are hedged on a second GPU at the observed p95
//     latency (first completion wins, the loser is cancelled); GPUs with
//     high rolling error rates are masked behind circuit breakers until a
//     half-open probe succeeds; and admission control sheds best-effort
//     arrivals before queues grow unboundedly.
//
// The walkthrough prints what each policy does to the kill losses: the
// guarded fleet recovers the work the deadline-only fleet drops, like the
// plain fleet does — but through bounded, budgeted, observable retries
// instead of an invisible unconditional re-dispatch loop.
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
	rate := flag.Float64("rate", 0, "offered load in requests per second (0 = 900 x scale)")
	kills := flag.Float64("kills", 2500, "injected GPU kills per simulated second")
	flag.Parse()
	if *rate <= 0 {
		*rate = 900 * float64(*scale)
	}

	// The latency-sensitive request: a small idempotent inference-style
	// kernel. Idempotency matters here: a retried or hedged attempt re-runs
	// the kernel from scratch on another GPU.
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
	sgemm, err := repro.AppByName("sgemm")
	if err != nil {
		log.Fatal(err)
	}

	spec := &repro.ArrivalSpec{
		Process: repro.ArrivalPoisson,
		Rate:    *rate,
		Horizon: repro.SimTime(5 * time.Millisecond),
		Classes: []repro.ArrivalClass{
			{Name: "rt", Priority: 1, Weight: 1, Deadline: repro.SimTime(300 * time.Microsecond),
				Apps: []repro.AppChoice{{App: infer, Weight: 1}}},
			{Name: "batch", Priority: 0, Weight: 2,
				Apps: []repro.AppChoice{{App: sgemm.Scale(*scale), Weight: 1}}},
		},
	}

	policies := []struct {
		label string
		spec  *repro.ResilienceSpec
	}{
		{"none", nil},
		{"deadline-only", &repro.ResilienceSpec{
			Timeout: repro.SimTime(800 * time.Microsecond),
		}},
		{"guarded", &repro.ResilienceSpec{
			Timeout: repro.SimTime(800 * time.Microsecond),
			Retry: &repro.RetryPolicy{
				MaxAttempts: 4,
				BackoffBase: repro.SimTime(20 * time.Microsecond),
				Budget:      &repro.RetryBudget{Tokens: 20, Ratio: 0.1},
			},
			Hedge:   &repro.HedgePolicy{Quantile: 0.95, MinObs: 16},
			Breaker: &repro.BreakerPolicy{ErrorRate: 0.5},
			Shed:    &repro.ShedPolicy{PerNode: 12, Queue: 24},
		}},
	}

	fmt.Printf("offered load: %.0f req/s on 4 GPUs, %.0f kills/s injected; PPQ + adaptive preemption\n\n", *rate, *kills)
	fmt.Printf("%-14s %9s %6s %8s %6s %6s %8s %7s %6s %12s %14s\n",
		"lifecycle", "requests", "done", "dropped", "shed", "lost", "retries", "hedges", "trips", "rt-p99", "goodput(req/s)")

	var deadlineOnly, guarded *repro.ClusterResult
	for _, p := range policies {
		res, err := repro.RunCluster(repro.Options{
			Policy:    repro.PolicyPPQ,
			Mechanism: repro.MechanismAdaptive,
			Seed:      7,
			Arrivals:  spec,
			Cluster: repro.ClusterConfig{
				Nodes:      4,
				Dispatch:   repro.DispatchJSQ,
				Faults:     &repro.FaultPlan{KillRate: *kills},
				Resilience: p.spec,
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		switch p.label {
		case "deadline-only":
			deadlineOnly = res
		case "guarded":
			guarded = res
		}
		// Without the lifecycle layer there is no request ledger: show the
		// attempt-level counts the plain fleet does keep.
		requests, done := res.Requests, res.ReqCompleted
		if p.spec == nil {
			requests, done = res.Admitted, res.Completed
		}
		rtP99 := time.Duration(res.Classes[0].Latency.Quantile(0.99))
		fmt.Printf("%-14s %9d %6d %8d %6d %6d %8d %7d %6d %12v %14.0f\n",
			p.label, requests, done, res.Dropped, res.Shed, res.Lost,
			res.Retries, res.Hedges, res.BreakerTrips, rtP99, res.Goodput)
	}

	fmt.Println()
	if recovered := guarded.ReqCompleted - deadlineOnly.ReqCompleted; recovered > 0 {
		fmt.Printf("the guarded fleet completed %d requests the deadline-only fleet dropped,\n", recovered)
		fmt.Printf("spending %d budgeted retries and %d hedges to do it. The plain fleet\n",
			guarded.Retries, guarded.Hedges)
		fmt.Println("recovers too — via instant unbounded re-dispatch, the policy that turns")
		fmt.Println("into a retry storm under overload (see the -exp resilience sweep).")
	} else {
		fmt.Println("unexpected: the guarded fleet recovered nothing (try a higher -kills)")
	}
}
