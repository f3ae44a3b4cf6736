package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// refScheduler is a deliberately naive reference implementation of the
// engine's scheduling semantics: a sorted slice of (time, sequence) entries,
// linear-scan cancellation, no pooling, and one sequence counter shared by
// plain scheduling and reserved slots. The property tests drive it in
// lockstep with the real engine and require identical firing order, clock,
// and Cancel outcomes — including after event records are pooled and reused
// and when events spend sequence slots reserved earlier.
type refScheduler struct {
	now     Time
	seq     uint64
	pending []refEvent
}

type refEvent struct {
	at      Time
	seq     uint64
	logical int // caller-assigned identity
}

func (r *refScheduler) schedule(at Time, logical int) {
	r.scheduleSeq(at, r.reserve(), logical)
}

// reserve hands out the next sequence slot (mirroring Engine.ReserveSeq).
func (r *refScheduler) reserve() uint64 {
	r.seq++
	return r.seq - 1
}

// scheduleSeq adds an event on a sequence slot reserved earlier.
func (r *refScheduler) scheduleSeq(at Time, seq uint64, logical int) {
	r.pending = append(r.pending, refEvent{at: at, seq: seq, logical: logical})
	sort.Slice(r.pending, func(i, j int) bool {
		a, b := r.pending[i], r.pending[j]
		return a.at < b.at || (a.at == b.at && a.seq < b.seq)
	})
}

// cancel removes the logical event if still pending, reporting whether it
// had effect (mirroring Engine.Cancel).
func (r *refScheduler) cancel(logical int) bool {
	for i := range r.pending {
		if r.pending[i].logical == logical {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return true
		}
	}
	return false
}

// step pops the next event, advancing the clock. Returns the logical id and
// whether an event fired.
func (r *refScheduler) step() (int, bool) {
	if len(r.pending) == 0 {
		return 0, false
	}
	ev := r.pending[0]
	r.pending = r.pending[1:]
	r.now = ev.at
	return ev.logical, true
}

// propState is the shared state of one lockstep property run.
type propState struct {
	t       *testing.T
	eng     *Engine
	ref     *refScheduler
	r       *rand.Rand
	handles []EventID // handles[logical]
	live    []bool    // scheduled and not known-fired/cancelled (may be stale)
	fired   []int     // engine firing order, logical ids
	n       int
	slots   []uint64 // reserved sequence slots not yet spent
}

// typedFire is the top-level Func used for the typed-dispatch form, so the
// property run exercises both callback representations.
func typedFire(p any, x int64) { p.(*propState).onFire(int(x)) }

// onFire records the firing and, with some probability, performs nested
// operations from inside the callback: scheduling new events, spending a
// reserved slot and cancelling existing handles, mirrored into the reference.
func (s *propState) onFire(logical int) {
	s.fired = append(s.fired, logical)
	s.live[logical] = false
	switch s.r.Intn(5) {
	case 0:
		s.schedule(Time(s.r.Intn(50)))
	case 1:
		s.cancelRandom()
	case 2:
		s.spendSlot(Time(s.r.Intn(50)))
	}
}

func (s *propState) schedule(delay Time) int {
	logical := s.n
	s.n++
	at := s.eng.Now() + delay
	var id EventID
	if s.r.Intn(2) == 0 {
		id = s.eng.AtFunc(at, typedFire, s, int64(logical))
	} else {
		id = s.eng.At(at, func() { s.onFire(logical) })
	}
	s.handles = append(s.handles, id)
	s.live = append(s.live, true)
	s.ref.schedule(at, logical)
	return logical
}

// reserve takes a sequence slot from both schedulers, which must agree on it.
func (s *propState) reserve() {
	got, want := s.eng.ReserveSeq(), s.ref.reserve()
	if got != want {
		s.t.Fatalf("ReserveSeq() = %d, reference says %d", got, want)
	}
	s.slots = append(s.slots, got)
}

// spendSlot schedules an event delay from now on a random reserved slot, as
// the cluster's windowed executor does when it replays a late arrival. The
// slot predates every event scheduled since its reservation, so among
// same-time events it must fire before them.
func (s *propState) spendSlot(delay Time) {
	if len(s.slots) == 0 {
		return
	}
	i := s.r.Intn(len(s.slots))
	seq := s.slots[i]
	s.slots[i] = s.slots[len(s.slots)-1]
	s.slots = s.slots[:len(s.slots)-1]
	logical := s.n
	s.n++
	at := s.eng.Now() + delay
	s.handles = append(s.handles, s.eng.AtSeqFunc(at, seq, typedFire, s, int64(logical)))
	s.live = append(s.live, true)
	s.ref.scheduleSeq(at, seq, logical)
}

// cancelLive cancels a random still-pending event, which both schedulers
// must agree succeeds, and reports whether the engine compacted its heap in
// the process (its pending count, which includes cancelled entries, fell).
func (s *propState) cancelLive() (compacted bool) {
	var pending []int
	for logical, ok := range s.live {
		if ok {
			pending = append(pending, logical)
		}
	}
	if len(pending) == 0 {
		return false
	}
	logical := pending[s.r.Intn(len(pending))]
	before := s.eng.Pending()
	if !s.eng.Cancel(s.handles[logical]) || !s.ref.cancel(logical) {
		s.t.Fatalf("Cancel of pending logical %d had no effect", logical)
	}
	s.live[logical] = false
	return s.eng.Pending() < before
}

// cancelRandom cancels a random handle — possibly one that already fired or
// was already cancelled, which exercises stale handles over reused records —
// and checks the engine agrees with the reference about the outcome.
func (s *propState) cancelRandom() {
	if len(s.handles) == 0 {
		return
	}
	logical := s.r.Intn(len(s.handles))
	got := s.eng.Cancel(s.handles[logical])
	want := s.ref.cancel(logical)
	if got != want {
		s.t.Fatalf("Cancel(logical %d) = %v, reference says %v", logical, got, want)
	}
	if got {
		s.live[logical] = false
	}
}

// stepBoth advances both schedulers one event and checks they agree. The
// reference pops first: the engine's callback runs nested operations (it may
// cancel arbitrary handles), and by then the firing event is pending in
// neither scheduler.
func (s *propState) stepBoth() bool {
	before := len(s.fired)
	wantLogical, refOK := s.ref.step()
	engOK := s.eng.Step()
	if engOK != refOK {
		s.t.Fatalf("Step() = %v, reference says %v (engine pending %d, ref pending %d)",
			engOK, refOK, s.eng.Pending(), len(s.ref.pending))
	}
	if !engOK {
		return false
	}
	if len(s.fired) == before {
		s.t.Fatalf("engine Step fired no callback but reference fired %d", wantLogical)
	}
	gotLogical := s.fired[before]
	if gotLogical != wantLogical {
		s.t.Fatalf("fired logical %d, reference says %d (position %d)", gotLogical, wantLogical, before)
	}
	if s.eng.Now() != s.ref.now {
		s.t.Fatalf("clock %v, reference clock %v", s.eng.Now(), s.ref.now)
	}
	return true
}

// TestEngineMatchesReferenceScheduler drives random schedule/cancel/run
// sequences through the engine and the naive reference in lockstep. Because
// engine records are pooled and reused while reference entries are not, any
// handle-aliasing bug (a stale EventID cancelling a slot's new occupant, a
// reused record firing with the wrong identity) shows up as a divergence.
func TestEngineMatchesReferenceScheduler(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		s := &propState{
			t:   t,
			eng: NewEngine(),
			ref: &refScheduler{},
			r:   rand.New(rand.NewSource(seed)),
		}
		for op := 0; op < 600; op++ {
			switch s.r.Intn(12) {
			case 0, 1, 2, 3: // schedule
				s.schedule(Time(s.r.Intn(100)))
			case 4, 5: // cancel something (live, fired, or stale)
				s.cancelRandom()
			case 6: // reserve a slot to spend later
				s.reserve()
			case 7: // spend one, tying with events scheduled since
				s.spendSlot(Time(s.r.Intn(100)))
			default: // step
				s.stepBoth()
			}
		}
		// Drain both completely.
		for s.stepBoth() {
		}
		if s.eng.Pending() != 0 {
			t.Fatalf("seed %d: %d events still pending after drain", seed, s.eng.Pending())
		}
		if len(s.ref.pending) != 0 {
			t.Fatalf("seed %d: reference still has %d pending", seed, len(s.ref.pending))
		}
		// Every live handle is now stale; cancelling must be a no-op.
		for logical, id := range s.handles {
			if s.eng.Cancel(id) {
				t.Fatalf("seed %d: Cancel succeeded on drained event %d", seed, logical)
			}
		}
	}
}

// TestEngineReferenceHeavyCancellation biases the op mix toward cancellation
// so the bulk-compaction path runs repeatedly while the reference checks
// ordering is preserved across compactions.
func TestEngineReferenceHeavyCancellation(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		s := &propState{
			t:   t,
			eng: NewEngine(),
			ref: &refScheduler{},
			r:   rand.New(rand.NewSource(seed)),
		}
		for round := 0; round < 20; round++ {
			for i := 0; i < 50; i++ {
				s.schedule(Time(s.r.Intn(1000)))
			}
			for i := 0; i < 120; i++ {
				s.cancelRandom()
			}
			for i := 0; i < 10; i++ {
				s.stepBoth()
			}
		}
		for s.stepBoth() {
		}
		if s.eng.Now() != s.ref.now {
			t.Fatalf("seed %d: final clock %v, reference %v", seed, s.eng.Now(), s.ref.now)
		}
	}
}

// TestEngineReferenceDeepHeap holds at least 200 pending events — a K20c's
// 208 thread-block slots each hold about one — so pops run the four-child
// tournament over several full heap levels, with many same-time ties among
// plain and reserved-slot events. Bursts of cancellation push cancelled
// entries past half the heap, so compaction's re-heapify runs on a deep
// heap too, and ordering must survive it.
func TestEngineReferenceDeepHeap(t *testing.T) {
	const floor = 200
	for seed := int64(200); seed < 206; seed++ {
		s := &propState{
			t:   t,
			eng: NewEngine(),
			ref: &refScheduler{},
			r:   rand.New(rand.NewSource(seed)),
		}
		for round := 0; round < 8; round++ {
			for len(s.ref.pending) < floor+60 {
				if s.r.Intn(4) == 0 {
					s.reserve()
				}
				s.schedule(Time(s.r.Intn(400)))
			}
			for op := 0; op < 400; op++ {
				if len(s.ref.pending) < floor {
					s.schedule(Time(s.r.Intn(400)))
				}
				switch s.r.Intn(8) {
				case 0, 1:
					s.schedule(Time(s.r.Intn(400)))
				case 2:
					s.reserve()
				case 3:
					s.spendSlot(Time(s.r.Intn(400)))
				default:
					s.stepBoth()
				}
			}
			// Cancel until the engine compacts, which it must do once
			// cancelled entries outnumber live ones: within half the heap.
			heap := s.eng.Pending()
			if heap < floor {
				t.Fatalf("seed %d round %d: %d pending before cancelling, want at least %d", seed, round, heap, floor)
			}
			compacted := false
			for i := 0; i <= heap/2 && !compacted; i++ {
				compacted = s.cancelLive()
			}
			if !compacted {
				t.Fatalf("seed %d round %d: %d cancels in a heap of %d did not compact it", seed, round, heap/2+1, heap)
			}
		}
		for s.stepBoth() {
		}
		if s.eng.Pending() != 0 || len(s.ref.pending) != 0 {
			t.Fatalf("seed %d: engine pending %d, reference pending %d after drain",
				seed, s.eng.Pending(), len(s.ref.pending))
		}
	}
}
