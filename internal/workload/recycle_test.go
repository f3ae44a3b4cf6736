package workload

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/preempt"
	"repro/internal/sim"
)

// recycleCell is one workload run of TestRecycledMachineMatchesFresh.
type recycleCell struct {
	name string
	spec Spec
	rc   RunConfig
}

// recycleCells returns dissimilar cells: every one rebuilds a different
// machine, policy, mechanism or context layout than the cell before it.
func recycleCells(t testing.TB) []recycleCell {
	suite := scaledSuite(t, 32)
	dss := testRunConfig()
	dss.Policy = func(n int) core.Policy { return policy.NewDSS(n) }
	dss.Mechanism = func() core.Mechanism { return preempt.Drain{} }

	ppq := testRunConfig()
	ppq.Policy = func(n int) core.Policy { return policy.NewPPQ(false) }
	ppq.Mechanism = func() core.Mechanism { return preempt.ContextSwitch{} }

	mps := testRunConfig()
	mps.Policy = func(n int) core.Policy { return policy.NewFCFS() }
	mps.MPS = true

	timeline := ppq
	timeline.Sys.RecordTimeline = true

	events := dss
	events.MaxEvents = 5000

	simTime := ppq
	simTime.MaxSimTime = 200 * sim.Microsecond

	small := dss
	small.Sys.GPU.NumSMs = 4
	small.Sys.TimeScale = 1.5

	spec := func(name string, hp int, seed uint64, apps ...int) Spec {
		s := Spec{Name: name, HighPriority: hp, Seed: seed}
		for _, i := range apps {
			s.Apps = append(s.Apps, suite[i])
		}
		return s
	}
	dss8 := spec("dss-drain-8", -1, 5, 0, 1, 2, 3, 4, 5, 6, 7)
	return []recycleCell{
		{"dss-drain-8", dss8, dss},
		{"ppq-cs-hp", spec("ppq-cs-hp", 0, 3, 3, 0, 9), ppq},
		{"mps", spec("mps", -1, 7, 3, 6, 1), mps},
		{"timeline", spec("timeline", 1, 9, 4, 6), timeline},
		{"max-events", dss8, events},
		{"max-sim-time", spec("max-sim-time", 0, 11, 0, 9, 2, 5), simTime},
		{"small-gpu", spec("small-gpu", -1, 13, 8, 2, 7), small},
		{"dss-drain-8-again", dss8, dss},
	}
}

// TestRecycledMachineMatchesFresh runs dissimilar cells back to back on one
// machine and requires each result to equal the same cell's on a fresh
// machine, and a returned result to share no memory with the machine.
func TestRecycledMachineMatchesFresh(t *testing.T) {
	var m machine
	var prev *Result
	for _, c := range recycleCells(t) {
		got, err := m.run(c.spec, c.rc)
		if err != nil {
			t.Fatalf("%s on the recycled machine: %v", c.name, err)
		}
		want, err := new(machine).run(c.spec, c.rc)
		if err != nil {
			t.Fatalf("%s on a fresh machine: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: recycled machine's result differs from a fresh machine's\nrecycled: %+v\nfresh:    %+v", c.name, got, want)
		}
		switch c.name {
		case "max-events", "max-sim-time":
			if got.Completed {
				t.Fatalf("%s: the limit did not cut the run short", c.name)
			}
		case "timeline":
			if got.Timeline == nil || len(got.Timeline.Intervals) == 0 {
				t.Fatalf("%s: no timeline recorded", c.name)
			}
		}
		// The previous result was overwritten in place below; this run must
		// not have written into it, nor read it.
		if prev != nil && prev.Apps[0].Turnarounds[0] != -1 {
			t.Fatalf("%s: the run wrote into the previous result's turnarounds", c.name)
		}
		if len(got.Apps[0].Turnarounds) > 0 {
			got.Apps[0].Turnarounds[0] = -1
			prev = got
		} else {
			prev = nil
		}
	}
}

// TestRecycledRunAllocs pins what recycling saves: a repeat of the 8-app
// DSS cell on a warm machine allocates its policy, mechanism and Result
// (13 objects), not a machine and processes (a fresh machine takes 422).
func TestRecycledRunAllocs(t *testing.T) {
	c := recycleCells(t)[0]
	var m machine
	if _, err := m.run(c.spec, c.rc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := m.run(c.spec, c.rc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20 {
		t.Fatalf("a repeat run of %s allocates %.0f objects, want <= 20", c.name, allocs)
	}
}

// TestConcurrentRunsMatchFresh runs the cells through Run from several
// goroutines at once, so machines pass between workers through the pool,
// and requires every result to equal the cell's on a fresh machine.
func TestConcurrentRunsMatchFresh(t *testing.T) {
	cells := recycleCells(t)
	want := make([]*Result, len(cells))
	for i, c := range cells {
		res, err := new(machine).run(c.spec, c.rc)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range cells {
				i := (k + w) % len(cells)
				got, err := Run(cells[i].spec, cells[i].rc)
				if err != nil {
					t.Errorf("worker %d, %s: %v", w, cells[i].name, err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("worker %d, %s: result differs from a fresh machine's", w, cells[i].name)
				}
			}
		}(w)
	}
	wg.Wait()
}
