// Package workload composes and runs multiprogrammed workloads following
// the paper's methodology (§4.1): benchmark applications are co-scheduled
// and each replays upon completion until every application has completed at
// least MinRuns executions (FAME / Tuck-Tullsen style); statistics are
// gathered for completed runs only. Isolated baselines are obtained by
// running each application alone on the same machine.
package workload

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/policy"
	"repro/internal/preempt"
	"repro/internal/proc"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"
)

// Spec describes one multiprogrammed workload.
type Spec struct {
	// Name labels the workload in reports.
	Name string
	// Apps are the co-scheduled applications.
	Apps []*trace.App
	// HighPriority is the index of the prioritized application, or -1.
	HighPriority int
	// Seed drives the machine's jitter for this workload.
	Seed uint64
}

// Random generates count random workloads of the given size from the suite,
// as in §4.1/§4.2. When withHighPriority is set, each workload designates
// one application as high-priority, cycling through the suite so that every
// benchmark appears as the high-priority process the same number of times.
func Random(suite []*trace.App, size, count int, seed uint64, withHighPriority bool) []Spec {
	if size < 1 || size > len(suite) {
		panic(fmt.Sprintf("workload: size %d out of range for suite of %d", size, len(suite)))
	}
	r := rng.New(seed)
	specs := make([]Spec, 0, count)
	for i := 0; i < count; i++ {
		var apps []*trace.App
		hp := -1
		if withHighPriority {
			hpApp := suite[i%len(suite)]
			apps = append(apps, hpApp)
			hp = 0
			for _, j := range r.Perm(len(suite)) {
				if len(apps) == size {
					break
				}
				if suite[j].Name == hpApp.Name {
					continue
				}
				apps = append(apps, suite[j])
			}
		} else {
			for _, j := range r.Perm(len(suite)) {
				if len(apps) == size {
					break
				}
				apps = append(apps, suite[j])
			}
		}
		specs = append(specs, Spec{
			Name:         fmt.Sprintf("w%dp-%02d", size, i),
			Apps:         apps,
			HighPriority: hp,
			Seed:         rng.SeedFrom(seed, uint64(size), uint64(i)),
		})
	}
	return specs
}

// RunConfig parameterizes a workload simulation.
type RunConfig struct {
	// Sys is the machine configuration (seed and DMA order are taken from
	// here; the workload's Seed overrides Sys.Seed when non-zero).
	Sys system.Config
	// Policy builds the scheduling policy for a workload of n processes.
	Policy func(n int) core.Policy
	// Mechanism builds the preemption mechanism.
	Mechanism func() core.Mechanism
	// MinRuns is the number of completed runs every application needs
	// before the simulation stops (3 in the paper).
	MinRuns int
	// MaxSimTime aborts the simulation at this virtual time (guard against
	// starvation; 0 = 120 simulated seconds).
	MaxSimTime sim.Time
	// MaxEvents aborts the simulation after this many events (0 = 2e9).
	MaxEvents uint64
	// MPS runs all applications inside a single shared GPU context, as
	// NVIDIA's Multi-Process Service does (§2.1): kernels from different
	// processes execute back-to-back like kernels of one process, but
	// memory isolation is lost and per-process priorities cannot be
	// enforced (all commands carry the shared context's priority).
	MPS bool
}

// Defaults fills zero fields.
func (rc *RunConfig) defaults() {
	if rc.MinRuns <= 0 {
		rc.MinRuns = 3
	}
	if rc.MaxSimTime <= 0 {
		rc.MaxSimTime = 120 * sim.Second
	}
	if rc.MaxEvents == 0 {
		rc.MaxEvents = 2e9
	}
	if rc.Mechanism == nil {
		rc.Mechanism = func() core.Mechanism { return preempt.None{} }
	}
}

// AppResult is one application's outcome in a workload.
type AppResult struct {
	Name string
	// Runs is the number of completed runs.
	Runs int
	// MeanTurnaround is the average turnaround over completed runs; zero
	// if the application never completed.
	MeanTurnaround sim.Time
	// Turnarounds lists every completed run's turnaround.
	Turnarounds []sim.Time
	// Starved is set when the application completed no runs.
	Starved bool
	// HighPriority marks the prioritized application.
	HighPriority bool
}

// Result is a completed workload simulation.
type Result struct {
	Spec Spec
	Apps []AppResult
	// EndTime is the virtual time the simulation stopped.
	EndTime sim.Time
	// Completed is true when every application reached MinRuns.
	Completed bool
	// Stats snapshots the execution engine counters.
	Stats core.Stats
	// Utilization is the SM busy fraction over the simulation.
	Utilization float64
	// Timeline is attached when the machine records one.
	Timeline *core.Timeline
}

// Run simulates one workload.
func Run(spec Spec, rc RunConfig) (*Result, error) {
	rc.defaults()
	if len(spec.Apps) == 0 {
		return nil, fmt.Errorf("workload: empty workload")
	}
	if rc.Policy == nil {
		return nil, fmt.Errorf("workload: no policy factory")
	}
	sysCfg := rc.Sys
	if spec.Seed != 0 {
		sysCfg.Seed = spec.Seed
	}
	sys, err := system.New(sysCfg, rc.Policy(len(spec.Apps)), rc.Mechanism())
	if err != nil {
		return nil, err
	}
	sys.Eng.SetMaxEvents(rc.MaxEvents)

	procs := make([]*proc.Process, len(spec.Apps))
	done := func() bool {
		for _, p := range procs {
			if p.CompletedRuns() < rc.MinRuns {
				return false
			}
		}
		return true
	}
	var mpsCtx *gpu.Context
	if rc.MPS {
		mpsCtx, err = sys.NewContext("mps-proxy", 0)
		if err != nil {
			return nil, err
		}
	}
	for i, app := range spec.Apps {
		prio := 0 // the designated high-priority process gets 1
		if i == spec.HighPriority {
			prio = 1
		}
		var p *proc.Process
		if rc.MPS {
			p, err = proc.NewWithContext(sys, mpsCtx, app)
		} else {
			p, err = proc.New(sys, app, prio)
		}
		if err != nil {
			return nil, err
		}
		p.Loop = true
		p.OnRunComplete = func(p *proc.Process, rec proc.RunRecord) {
			if done() {
				sys.Eng.Stop()
			}
		}
		procs[i] = p
	}
	for _, p := range procs {
		if err := p.Start(0); err != nil {
			return nil, err
		}
	}
	// Watchdog against starvation (e.g. persistent kernels under a
	// draining-only configuration).
	sys.Eng.AtFunc(rc.MaxSimTime, stopEvent, sys.Eng, 0)

	if err := sys.Eng.Run(); err != nil {
		if !errors.Is(err, sim.ErrEventLimit) {
			return nil, fmt.Errorf("workload %s: %w", spec.Name, err)
		}
		// The event safety limit works like the time watchdog: report the
		// partial result (Completed will be false; unfinished applications
		// show as starved or short on runs).
	}

	res := &Result{
		Spec:        spec,
		EndTime:     sys.Eng.Now(),
		Completed:   done(),
		Stats:       sys.Exec.Stats(),
		Utilization: sys.Exec.Utilization(sys.Eng.Now()),
		Timeline:    sys.Exec.Timeline(),
	}
	res.Timeline.Finish(sys.Eng.Now())
	for i, p := range procs {
		ar := AppResult{
			Name:         p.App().Name,
			Runs:         p.CompletedRuns(),
			HighPriority: i == spec.HighPriority,
		}
		for _, r := range p.Runs() {
			ar.Turnarounds = append(ar.Turnarounds, r.Turnaround())
		}
		ar.MeanTurnaround = p.MeanTurnaround()
		ar.Starved = ar.Runs == 0
		res.Apps = append(res.Apps, ar)
	}
	return res, nil
}

// stopEvent is the MaxSimTime watchdog: it stops engine p.
func stopEvent(p any, _ int64) { p.(*sim.Engine).Stop() }

// Isolated returns the mean isolated turnaround of the application on the
// machine: the app runs alone under FCFS (no contention, so the policy is
// immaterial) for MinRuns runs.
func Isolated(app *trace.App, rc RunConfig) (sim.Time, error) {
	iso := rc
	iso.Policy = func(n int) core.Policy { return policy.NewFCFS() }
	iso.Mechanism = nil
	iso.defaults()
	spec := Spec{Name: "iso-" + app.Name, Apps: []*trace.App{app}, HighPriority: -1, Seed: rc.Sys.Seed}
	res, err := Run(spec, iso)
	if err != nil {
		return 0, err
	}
	if !res.Completed {
		return 0, fmt.Errorf("workload: isolated run of %s did not complete", app.Name)
	}
	return res.Apps[0].MeanTurnaround, nil
}

// Cache memoizes the isolated baselines of one run configuration, per
// application by identity (distinct apps that share a name stay distinct).
// It is safe for concurrent use: experiment workers may look up baselines
// while other simulations are in flight.
type Cache struct {
	rc      RunConfig
	mu      sync.Mutex
	entries map[*trace.App]*cacheEntry
}

// cacheEntry computes one baseline exactly once; distinct apps compute
// concurrently without holding the cache lock.
type cacheEntry struct {
	once sync.Once
	t    sim.Time
	err  error
}

// NewCache returns an empty cache of the isolated baselines under rc.
func NewCache(rc RunConfig) *Cache {
	return &Cache{rc: rc, entries: make(map[*trace.App]*cacheEntry)}
}

// Isolated returns app's cached isolated turnaround, computing it on demand.
// Concurrent callers for the same app share one simulation; callers for
// different apps do not block each other.
func (c *Cache) Isolated(app *trace.App) (sim.Time, error) {
	c.mu.Lock()
	e, ok := c.entries[app]
	if !ok {
		e = &cacheEntry{}
		c.entries[app] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.t, e.err = Isolated(app, c.rc) })
	return e.t, e.err
}
