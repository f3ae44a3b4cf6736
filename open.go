package repro

import (
	"fmt"
	"io"

	"repro/internal/arrivals"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// The open-system types are aliases of the internal specs and reports, which
// are their single declaration: field docs and validation live in
// internal/arrivals, internal/trace and internal/metrics. Their duration
// fields are SimTime, as in the fleet types; convert a time.Duration with
// SimTime(d) and print one with time.Duration(t).
type (
	// ArrivalProcess selects a synthetic inter-arrival process for
	// open-system workloads.
	ArrivalProcess = arrivals.Process
	// ArrivalClass describes one service class of an open-system workload:
	// requests of the class share a scheduling priority, an optional
	// completion deadline, and a weighted application mix (Apps). Each
	// arrival of the class replays one of its applications once.
	ArrivalClass = arrivals.ClassSpec
	// AppChoice pairs one application of a class's mix with its positive
	// weight. Applications may come from the Parboil suite or from the
	// AppBuilder.
	AppChoice = arrivals.AppChoice
	// ArrivalPhase scales the arrival rate for a stretch of simulated time.
	// A phase sequence models time-varying offered load — a diurnal curve or
	// a flash crowd — and cycles until the stream ends.
	ArrivalPhase = arrivals.Phase
	// ArrivalTrace is a serializable open-system arrival stream
	// (applications, service classes and time-ordered arrivals). Write it
	// out with WriteJSON to replay a synthesized stream byte-identically in
	// a later run.
	ArrivalTrace = trace.ArrivalTrace
	// ClassReport is one service class's outcome in an open-system or
	// cluster simulation: request counters plus the Wait (arrival to first
	// thread block on an SM) and Latency (arrival to run completion) quantile
	// sketches. Read a percentile with c.Latency.Quantile(0.99) and the
	// derived counts with c.InFlight() and c.MissRate().
	ClassReport = metrics.ClassSLO
	// OpenResult reports an open-system simulation; Stats.PreemptionsDone
	// counts completed SM preemptions.
	OpenResult = arrivals.Result
)

// Available inter-arrival processes.
const (
	// ArrivalPoisson draws memoryless exponential inter-arrival gaps.
	ArrivalPoisson = arrivals.ProcPoisson
	// ArrivalBursty emits geometric bursts of back-to-back arrivals
	// separated by long gaps, at the same mean rate.
	ArrivalBursty = arrivals.ProcBursty
	// ArrivalHeavyTail draws truncated-Pareto gaps (self-similar traffic).
	ArrivalHeavyTail = arrivals.ProcHeavyTail
)

// ArrivalSpec describes an open-system workload: a synthetic arrival stream
// (Process/Rate/Horizon over Classes) or a replayed trace. Assign it to
// Options.Arrivals and simulate with RunOpen.
type ArrivalSpec struct {
	// Process is the inter-arrival process. Default ArrivalPoisson.
	Process ArrivalProcess
	// Rate is the mean offered load in requests per simulated second.
	Rate float64
	// Horizon bounds arrival times to [0, Horizon).
	Horizon SimTime
	// MaxArrivals caps the stream length (0 = bounded by Horizon only).
	MaxArrivals int
	// Seed drives stream generation; 0 falls back to Options.Seed.
	Seed uint64
	// Classes are the service classes of the synthetic stream.
	Classes []ArrivalClass
	// Phases optionally modulate Rate over time (empty = constant rate).
	Phases []ArrivalPhase
	// Trace, when non-nil, replays a previously generated (or hand-written)
	// arrival stream instead of synthesizing one; the fields above are
	// ignored.
	Trace *ArrivalTrace
}

// ReadArrivals parses and validates an arrival stream from JSON.
func ReadArrivals(r io.Reader) (*ArrivalTrace, error) { return trace.ReadArrivalTrace(r) }

// Synthesize generates the spec's arrival stream without running it, for
// inspection or for writing out and replaying later. The stream is a pure
// function of the spec and the effective seed (spec.Seed, or o.Seed when
// unset), so RunOpen on the returned trace equals RunOpen on the spec.
func (s ArrivalSpec) Synthesize(o Options) (*ArrivalTrace, error) {
	if s.Trace != nil {
		return s.Trace, nil
	}
	if s.Seed == 0 {
		s.Seed = o.fill().Seed
	}
	return arrivals.Generate(arrivals.GenSpec{
		Process:     s.Process,
		Rate:        s.Rate,
		Horizon:     s.Horizon,
		MaxArrivals: s.MaxArrivals,
		Seed:        s.Seed,
		Classes:     s.Classes,
		Phases:      s.Phases,
	})
}

// RunOpen simulates the open-system workload described by o.Arrivals: the
// stream's requests are admitted as fresh processes at their arrival times
// under the configured policy and preemption mechanism, and retired on
// completion. Per-class percentile latencies come from deterministic
// fixed-size quantile sketches, so results are byte-identical across runs
// and (for experiment grids) across worker counts.
func RunOpen(o Options) (*OpenResult, error) {
	o = o.fill()
	if o.Arrivals == nil {
		return nil, fmt.Errorf("repro: RunOpen needs Options.Arrivals")
	}
	at, err := o.Arrivals.Synthesize(o)
	if err != nil {
		return nil, err
	}
	rc, err := o.runConfig()
	if err != nil {
		return nil, err
	}
	return arrivals.Run(at, arrivals.RunConfig{
		Sys:        rc.Sys,
		Policy:     rc.Policy,
		Mechanism:  rc.Mechanism,
		MaxSimTime: rc.MaxSimTime,
	})
}
