// Package arrivals turns the simulator into an open system: instead of a
// fixed set of co-scheduled applications replaying forever (the paper's
// closed-pair methodology, §4.1), a time-ordered stream of requests arrives
// while the machine runs. Each request admits a fresh process mid-simulation,
// replays its application once, and retires — the evaluation methodology of
// the real-time GPU scheduling literature (GCAPS-style task arrival models
// with deadline distributions) applied to the paper's preemption mechanisms.
//
// The package provides seeded synthetic stream generators (Poisson, bursty
// and heavy-tailed inter-arrival processes over weighted per-class
// application mixes), a helper that explodes the Parboil suite into
// single-kernel micro-requests, and the open-system engine itself, which
// streams per-class SLO metrics (quantile sketches of queueing and
// completion latency, deadline-miss rate, goodput) as requests complete.
// Generated streams serialize through trace.ArrivalTrace for byte-identical
// replay.
package arrivals

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Process selects a synthetic inter-arrival process.
type Process string

// Available inter-arrival processes.
const (
	// ProcPoisson draws exponential inter-arrival gaps (memoryless open
	// traffic, the M/G/k baseline of queueing evaluations).
	ProcPoisson Process = "poisson"
	// ProcBursty emits geometric-sized bursts of back-to-back arrivals
	// separated by long exponential gaps, preserving the mean rate.
	ProcBursty Process = "bursty"
	// ProcHeavyTail draws Pareto inter-arrival gaps (truncated at 1000x the
	// mean), modelling self-similar traffic with occasional long silences.
	ProcHeavyTail Process = "heavytail"
)

// AppChoice weights one application within a class's request mix.
type AppChoice struct {
	App *trace.App
	// Weight is the relative probability of this application; non-positive
	// weights are rejected.
	Weight float64
}

// ClassSpec describes one service class of a synthetic stream.
type ClassSpec struct {
	// Name labels the class in metrics.
	Name string
	// Priority is the GPU scheduling priority of the class's requests.
	Priority int
	// Weight is the class's share of arrivals.
	Weight float64
	// Deadline is the completion-latency budget (0 = none).
	Deadline sim.Time
	// Apps is the class's weighted application mix.
	Apps []AppChoice
}

// Phase scales a stream's arrival rate for a stretch of simulated time.
// A phase sequence models time-varying offered load: a diurnal curve is a
// cycle of factors rising to a midday peak and falling back; a flash crowd
// is a short phase with a large factor between calm ones.
type Phase struct {
	// RateFactor multiplies the base Rate while the phase is active. Must be
	// positive and finite.
	RateFactor float64
	// Duration is the phase's length. Must be positive.
	Duration sim.Time
}

// GenSpec parameterizes a synthetic arrival stream.
type GenSpec struct {
	// Process is the inter-arrival process. Default ProcPoisson.
	Process Process
	// Rate is the mean offered load in arrivals per simulated second. Rate
	// times the largest phase factor must not exceed 1e9: the trace counts
	// whole nanoseconds, so a mean gap under 1ns cannot be represented.
	Rate float64
	// Horizon bounds arrival times to [0, Horizon). Zero means unbounded,
	// in which case MaxArrivals must be set.
	Horizon sim.Time
	// MaxArrivals caps the stream length (0 = no cap; Horizon must then be
	// set).
	MaxArrivals int
	// Seed drives all randomness of the generator.
	Seed uint64
	// Classes are the service classes with their request mixes.
	Classes []ClassSpec
	// Phases optionally modulate Rate over time: the phases play in order
	// and cycle until the stream ends. Empty means constant rate.
	Phases []Phase
	// BurstMean is the mean burst size of ProcBursty. Default 8.
	BurstMean float64
	// Alpha is the Pareto shape of ProcHeavyTail (must be > 1 for a finite
	// mean). Default 1.5.
	Alpha float64
}

func (g GenSpec) withDefaults() GenSpec {
	if g.Process == "" {
		g.Process = ProcPoisson
	}
	if g.BurstMean <= 1 {
		g.BurstMean = 8
	}
	if g.Alpha <= 1 {
		g.Alpha = 1.5
	}
	if g.Seed == 0 {
		g.Seed = 1
	}
	return g
}

func (g *GenSpec) validate() error {
	if !(g.Rate > 0) || math.IsInf(g.Rate, 1) {
		return fmt.Errorf("arrivals: rate must be positive and finite, got %v", g.Rate)
	}
	if g.Horizon <= 0 && g.MaxArrivals <= 0 {
		return fmt.Errorf("arrivals: either Horizon or MaxArrivals must bound the stream")
	}
	if len(g.Classes) == 0 {
		return fmt.Errorf("arrivals: no classes")
	}
	for _, c := range g.Classes {
		if c.Name == "" {
			return fmt.Errorf("arrivals: class with empty name")
		}
		if c.Weight <= 0 {
			return fmt.Errorf("arrivals: class %s: weight must be positive", c.Name)
		}
		if c.Deadline < 0 {
			return fmt.Errorf("arrivals: class %s: negative deadline", c.Name)
		}
		if len(c.Apps) == 0 {
			return fmt.Errorf("arrivals: class %s has no applications", c.Name)
		}
		for _, a := range c.Apps {
			if a.App == nil {
				return fmt.Errorf("arrivals: class %s references a nil application", c.Name)
			}
			if a.Weight <= 0 {
				return fmt.Errorf("arrivals: class %s: app %s: weight must be positive", c.Name, a.App.Name)
			}
		}
	}
	maxFactor := 1.0
	for i, p := range g.Phases {
		if !(p.RateFactor > 0) || math.IsInf(p.RateFactor, 1) {
			return fmt.Errorf("arrivals: phase %d: rate factor must be positive and finite, got %v", i, p.RateFactor)
		}
		if p.Duration <= 0 {
			return fmt.Errorf("arrivals: phase %d: duration must be positive, got %v", i, p.Duration)
		}
		if i == 0 || p.RateFactor > maxFactor {
			maxFactor = p.RateFactor
		}
	}
	if peak := g.Rate * maxFactor; peak > float64(sim.Second) {
		return fmt.Errorf("arrivals: peak rate %v/s exceeds 1e9/s: a mean gap under 1ns does not fit the nanosecond trace", peak)
	}
	switch g.Process {
	case ProcPoisson, ProcBursty, ProcHeavyTail:
	default:
		return fmt.Errorf("arrivals: unknown process %q", g.Process)
	}
	return nil
}

// phaseFactor returns the rate factor of the phase active at time at (the
// phase sequence cycles).
func phaseFactor(phases []Phase, at sim.Time) float64 {
	if len(phases) == 0 {
		return 1
	}
	var total sim.Time
	for _, p := range phases {
		total += p.Duration
	}
	t := at % total
	for _, p := range phases {
		if t < p.Duration {
			return p.RateFactor
		}
		t -= p.Duration
	}
	return phases[len(phases)-1].RateFactor
}

// Generate synthesizes a seeded arrival stream as a serializable trace: the
// stream is a pure function of the spec, so regenerating with the same spec
// (or replaying the written trace) reproduces the simulation exactly.
func Generate(spec GenSpec) (*trace.ArrivalTrace, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}

	out := &trace.ArrivalTrace{}
	appIdx := make(map[*trace.App]int)
	// Per-class app index + cumulative weight tables, in class order.
	type classTab struct {
		apps []int
		cum  []float64
	}
	tabs := make([]classTab, len(spec.Classes))
	classCum := make([]float64, len(spec.Classes))
	var classTotal float64
	for ci, c := range spec.Classes {
		out.Classes = append(out.Classes, trace.ArrivalClass{
			Name: c.Name, Priority: c.Priority, Deadline: c.Deadline,
		})
		classTotal += c.Weight
		classCum[ci] = classTotal
		var tab classTab
		var total float64
		for _, a := range c.Apps {
			idx, ok := appIdx[a.App]
			if !ok {
				idx = len(out.Apps)
				appIdx[a.App] = idx
				out.Apps = append(out.Apps, a.App)
			}
			total += a.Weight
			tab.apps = append(tab.apps, idx)
			tab.cum = append(tab.cum, total)
		}
		tabs[ci] = tab
	}

	r := rng.New(spec.Seed)
	pickCum := func(cum []float64) int {
		u := r.Float64() * cum[len(cum)-1]
		for i, c := range cum {
			if u < c {
				return i
			}
		}
		return len(cum) - 1
	}

	meanGap := 1 / spec.Rate // seconds
	expGap := func(mean float64) float64 {
		return -float64(math.Log(1-r.Float64()) * mean)
	}

	if spec.Horizon <= 0 {
		// Unbounded in time, the stream is exactly MaxArrivals long. Under a
		// horizon MaxArrivals is only a loose cap, so the slice grows.
		out.Arrivals = make([]trace.Arrival, 0, spec.MaxArrivals)
	}
	var t float64 // seconds
	burstLeft := 0
	intraGap := meanGap / 10
	for {
		if spec.MaxArrivals > 0 && len(out.Arrivals) >= spec.MaxArrivals {
			break
		}
		// The active phase scales the mean gap of the next draw, so rate
		// changes take effect one inter-arrival at a time — enough for
		// diurnal and flash-crowd load shapes without event-level machinery.
		mg := meanGap / phaseFactor(spec.Phases, sim.Time(t*float64(sim.Second)))
		switch spec.Process {
		case ProcPoisson:
			t += expGap(mg)
		case ProcBursty:
			if burstLeft > 0 {
				burstLeft--
				t += intraGap
			} else {
				// Draw the burst size (geometric, mean BurstMean) and open
				// the burst after a gap that preserves the overall rate.
				size := 1
				for r.Float64() > 1/spec.BurstMean {
					size++
				}
				burstLeft = size - 1
				interGap := float64(float64(size)*mg) - float64(float64(size-1)*intraGap)
				if interGap < intraGap {
					interGap = intraGap
				}
				t += expGap(interGap)
			}
		case ProcHeavyTail:
			// Pareto with shape Alpha scaled to mean mg, truncated at
			// 1000x the mean so a single draw cannot swallow the horizon.
			xm := mg * (spec.Alpha - 1) / spec.Alpha
			gap := xm / math.Pow(1-r.Float64(), 1/spec.Alpha)
			if gap > 1000*mg {
				gap = 1000 * mg
			}
			t += gap
		}
		at := sim.Time(t * float64(sim.Second))
		if spec.Horizon > 0 && at >= spec.Horizon {
			break
		}
		ci := pickCum(classCum)
		ai := tabs[ci].apps[pickCum(tabs[ci].cum)]
		out.Arrivals = append(out.Arrivals, trace.Arrival{At: at, App: ai, Class: ci})
	}
	if len(out.Arrivals) == 0 {
		return nil, fmt.Errorf("arrivals: spec generated an empty stream (rate %v over horizon %v)",
			spec.Rate, spec.Horizon)
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("arrivals: generated trace invalid: %w", err)
	}
	return out, nil
}

// MicroApps explodes applications into single-launch micro-requests: one
// synthetic app per kernel, consisting of exactly that kernel's launch plus
// a synchronization, weighted by how often the source application launches
// the kernel per run. This is the "weighted kernel mix over the Parboil
// suite" of open-system sweeps: request service times span the suite's
// thread-block spectrum without replaying whole multi-second applications.
func MicroApps(apps []*trace.App) []AppChoice {
	var out []AppChoice
	for _, a := range apps {
		counts := a.LaunchCounts()
		for ki := range a.Kernels {
			k := a.Kernels[ki] // copy
			w := counts[ki]
			if w <= 0 {
				continue
			}
			k.Launches = 1
			micro := &trace.App{
				Name:    a.Name + "/" + k.Name,
				Kernels: []trace.KernelSpec{k},
				Ops: []trace.Op{
					{Kind: trace.OpLaunch, Kernel: 0},
					{Kind: trace.OpSync},
				},
				Class1: a.Class1,
				Class2: a.Class2,
			}
			out = append(out, AppChoice{App: micro, Weight: float64(w)})
		}
	}
	return out
}
