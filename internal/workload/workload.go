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

// machine is a simulated machine and the processes of the last workload
// run on it, recycled across Run calls through machines.
type machine struct {
	sys *system.System
	// procs holds every process ever built on sys; the current workload's
	// are live, a prefix of it.
	procs   []*proc.Process
	live    []*proc.Process
	minRuns int
	// tables rebuilds the phase tables of each workload's apps into arrays
	// the machine keeps.
	tables proc.PhaseTables
}

// machines recycles machines across Run calls. A machine goes back only
// after a successful run; the pool drops what it holds at garbage
// collection, and a fresh machine runs the same reset path.
var machines = sync.Pool{New: func() any { return new(machine) }}

// Run simulates one workload. It runs on a recycled machine: system.Reset
// rebuilds it for this workload's configuration, policy and mechanism, and
// each recycled process is aborted and then reused (proc.Process.Abort,
// Reuse) with its app's phase table, rebuilt in the machine's arrays, so
// the result equals a run on a fresh machine. The Result shares
// no memory with the machine.
func Run(spec Spec, rc RunConfig) (*Result, error) {
	m := machines.Get().(*machine)
	res, err := m.run(spec, rc)
	if err == nil {
		machines.Put(m)
	}
	return res, err
}

// run simulates one workload on m. On error m is unusable.
func (m *machine) run(spec Spec, rc RunConfig) (*Result, error) {
	rc.defaults()
	if len(spec.Apps) == 0 {
		return nil, fmt.Errorf("workload: empty workload")
	}
	if rc.Policy == nil {
		return nil, fmt.Errorf("workload: no policy factory")
	}
	for _, app := range spec.Apps {
		if err := app.Validate(); err != nil {
			return nil, err
		}
	}
	sysCfg := rc.Sys
	if spec.Seed != 0 {
		sysCfg.Seed = spec.Seed
	}
	var err error
	if m.sys == nil {
		m.sys, err = system.New(sysCfg, rc.Policy(len(spec.Apps)), rc.Mechanism())
	} else {
		err = m.sys.Reset(sysCfg, rc.Policy(len(spec.Apps)), rc.Mechanism())
	}
	if err != nil {
		return nil, err
	}
	sys := m.sys
	sys.Eng.SetMaxEvents(rc.MaxEvents)
	m.minRuns = rc.MinRuns

	tabs := m.tables.Build(spec.Apps)
	var mpsCtx *gpu.Context
	if rc.MPS {
		mpsCtx, err = sys.NewContext("mps-proxy", 0)
		if err != nil {
			return nil, err
		}
	}
	for i, app := range spec.Apps {
		ctx := mpsCtx
		if !rc.MPS {
			prio := 0 // the designated high-priority process gets 1
			if i == spec.HighPriority {
				prio = 1
			}
			if ctx, err = sys.NewContext(app.Name, prio); err != nil {
				return nil, err
			}
		}
		if i == len(m.procs) {
			p, err := proc.NewWithTable(sys, ctx, &tabs[i])
			if err != nil {
				return nil, err
			}
			p.OnRunComplete = m.runComplete
			m.procs = append(m.procs, p)
		} else {
			p := m.procs[i]
			p.Abort()
			p.Loop = false
			if err := p.Reuse(ctx, &tabs[i]); err != nil {
				return nil, err
			}
		}
		m.procs[i].Loop = true
	}
	m.live = m.procs[:len(spec.Apps)]
	for _, p := range m.live {
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
		Apps:        make([]AppResult, len(m.live)),
		EndTime:     sys.Eng.Now(),
		Completed:   m.done(),
		Stats:       sys.Exec.Stats(),
		Utilization: sys.Exec.Utilization(sys.Eng.Now()),
		Timeline:    sys.Exec.Timeline(),
	}
	res.Timeline.Finish(sys.Eng.Now())
	for i, p := range m.live {
		ar := &res.Apps[i]
		*ar = AppResult{
			Name:           p.App().Name,
			Runs:           p.CompletedRuns(),
			MeanTurnaround: p.MeanTurnaround(),
			Starved:        p.CompletedRuns() == 0,
			HighPriority:   i == spec.HighPriority,
		}
		// Copied out: the run records stay with the recycled process.
		if runs := p.Runs(); len(runs) > 0 {
			ar.Turnarounds = make([]sim.Time, len(runs))
			for j, r := range runs {
				ar.Turnarounds[j] = r.Turnaround()
			}
		}
	}
	return res, nil
}

// runComplete is every process's OnRunComplete: it stops the machine once
// the workload is done.
func (m *machine) runComplete(*proc.Process, proc.RunRecord) {
	if m.done() {
		m.sys.Eng.Stop()
	}
}

// done reports whether every live process has completed MinRuns runs.
func (m *machine) done() bool {
	for _, p := range m.live {
		if p.CompletedRuns() < m.minRuns {
			return false
		}
	}
	return true
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
