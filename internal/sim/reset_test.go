package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestResetStalesEveryHandle: no handle issued before Reset — to a pending,
// a canceled or a fired event — may cancel, or report as canceled, an event
// scheduled after it, even though the reset engine hands the same records
// out again.
func TestResetStalesEveryHandle(t *testing.T) {
	e := NewEngine()
	var old []EventID
	for i := 0; i < 8; i++ {
		old = append(old, e.AtFunc(Time(10+i), nop, nil, 0))
	}
	e.Cancel(old[3])
	e.Cancel(old[5])
	e.Step() // old[0] fires
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Processed() != 0 || e.stopped {
		t.Fatalf("reset engine not at the epoch: now %v, %d pending, %d processed",
			e.Now(), e.Pending(), e.Processed())
	}
	fired := 0
	for i := 0; i < 8; i++ {
		e.AtFunc(Time(20+i), func(any, int64) { fired++ }, nil, 0)
	}
	for i, id := range old {
		if canceled(e, id) {
			t.Errorf("handle %d from before the reset reports canceled", i)
		}
		if e.Cancel(id) {
			t.Errorf("handle %d from before the reset canceled a new event", i)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 8 {
		t.Errorf("%d of 8 events scheduled after the reset fired", fired)
	}
}

// TestResetEngineMatchesFresh drives a seeded random schedule — plain and
// typed events, cancellations, events scheduling events — on a fresh engine
// and on one reset after running a different schedule partway, and requires
// the same firing order, times and handles.
func TestResetEngineMatchesFresh(t *testing.T) {
	type fire struct {
		logical int
		at      Time
	}
	run := func(e *Engine, seed int64, steps int) ([]fire, []EventID) {
		r := rand.New(rand.NewSource(seed))
		var log []fire
		var ids []EventID
		var sched func(at Time, logical int)
		sched = func(at Time, logical int) {
			var id EventID
			if logical%2 == 0 {
				id = e.AtFunc(at, func(any, int64) {
					log = append(log, fire{logical, e.Now()})
					if r.Intn(3) == 0 {
						sched(e.Now()+Time(r.Intn(50)), logical+1000)
					}
				}, nil, 0)
			} else {
				id = e.AtFunc(at, func(_ any, x int64) { log = append(log, fire{int(x), e.Now()}) }, nil, int64(logical))
			}
			ids = append(ids, id)
		}
		for i := 0; i < 300; i++ {
			sched(Time(r.Intn(400)), i)
			if len(ids) > 0 && r.Intn(4) == 0 {
				e.Cancel(ids[r.Intn(len(ids))])
			}
		}
		for i := 0; i < steps && e.Step(); i++ {
		}
		return log, ids
	}
	for seed := int64(1); seed <= 20; seed++ {
		want, wantIDs := run(NewEngine(), seed, 1<<30)
		e := NewEngine()
		run(e, seed+100, 150) // leave the engine mid-flight
		e.Reset()
		got, gotIDs := run(e, seed, 1<<30)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: reset engine fired %d events differently from a fresh one", seed, len(got))
		}
		for i := range gotIDs {
			if gotIDs[i].idx != wantIDs[i].idx {
				t.Fatalf("seed %d: event %d got record %d, fresh engine %d", seed, i, gotIDs[i].idx, wantIDs[i].idx)
			}
		}
	}
}
