// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock with nanosecond resolution and a
// priority queue of scheduled events. Events scheduled for the same instant
// fire in the order they were scheduled, which makes simulations fully
// deterministic and therefore reproducible and testable.
//
// The scheduling core is allocation-free on the steady state: event records
// live inline in a pooled value slice (no per-event heap object), and callers
// receive compact generation-counted EventID handles instead of pointers.
// Records are ordered by a 4-ary min-heap whose entries carry the (time,
// sequence) key inline, so sifting never reads the record pool. A pop moves
// the hole to a leaf along the minimum children (Floyd's method), choosing
// among four children by a branch-free tournament: the winner is
// data-dependent, and a branch there was mispredicted about half the time.
// At 208 pending events that cut one Step plus one AtFunc from ~155 to
// ~100 ns on a 2-CPU Xeon host (BenchmarkEngineHeap). Cancellation is O(1)
// and lazy — cancelled records are discarded when they surface at the top
// of the heap, or in bulk when they outnumber live ones.
package sim

import (
	"fmt"
	"math/bits"
)

// Time is a point in virtual time, in nanoseconds. It is also used for
// durations; the zero value is the simulation epoch.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Microseconds converts a duration expressed in microseconds (possibly
// fractional, as in the paper's tables) to a Time.
func Microseconds(us float64) Time {
	if us < 0 {
		return Time(float64(us*float64(Microsecond)) - 0.5)
	}
	return Time(float64(us*float64(Microsecond)) + 0.5)
}

// Microseconds reports t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds reports t as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t == 0:
		return "0"
	case t < Microsecond && t > -Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond && t > -Millisecond:
		return fmt.Sprintf("%.2fus", t.Microseconds())
	case t < Second && t > -Second:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	default:
		return fmt.Sprintf("%.4fs", t.Seconds())
	}
}

// EventID is a generation-counted handle to a scheduled event. The zero
// value is invalid and never matches a live event; handles to events that
// fired (or whose record was reclaimed and reused) go stale and every
// operation on them reports false.
type EventID struct {
	idx int32
	gen uint32
}

// Func is an event's callback: a plain function (typically a top-level one,
// so the func value itself never allocates) receiving the context pointer
// and scalar argument it was scheduled with.
type Func func(p any, x int64)

// evState is the lifecycle state of an event record.
type evState uint8

const (
	evFree evState = iota
	evPending
	evCanceled
)

// eventRecord is one inline pooled event. Records are stored by value in
// Engine.rec and referenced by index from the heap; they are reused (with a
// bumped generation) once they fire or their cancellation is collected. The
// event's time and sequence slot live in its heap entry, not here.
type eventRecord struct {
	x     int64
	fn    Func
	p     any
	gen   uint32
	state evState
}

// heapEntry is one heap slot: the event's ordering key, inline so that sift
// operations never touch the record pool, and the index of its record.
type heapEntry struct {
	at  Time
	seq uint64
	idx int32
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; call NewEngine.
type Engine struct {
	now Time
	seq uint64

	rec  []eventRecord // record pool; heap entries index into it
	free []int32       // reusable record slots
	heap []heapEntry   // 4-ary min-heap keyed by (at, seq)

	ncanceled int // cancelled records still occupying heap entries

	stopped   bool
	processed uint64
	maxEvents uint64 // 0 = unlimited
}

// NewEngine returns an engine with the clock at the epoch.
func NewEngine() *Engine {
	e := &Engine{}
	e.Reset()
	return e
}

// Reset returns the engine to the state NewEngine produces — clock at the
// epoch, nothing scheduled, sequence and event counters at zero, no event
// limit — while keeping the record pool and heap capacity. Every pending
// event is dropped without firing, and every record's generation is bumped,
// so no EventID issued before the reset can cancel (or report as canceled)
// an event scheduled after it. The free list is refilled in descending
// index order, so records are handed out in the order a fresh engine
// appends them.
func (e *Engine) Reset() {
	e.now, e.seq = 0, 0
	e.free = e.free[:0]
	for i := len(e.rec) - 1; i >= 0; i-- {
		e.release(int32(i))
	}
	e.heap = e.heap[:0]
	e.ncanceled = 0
	e.stopped = false
	e.processed = 0
	e.maxEvents = 0
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events that have fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events still scheduled (including canceled
// events that have not yet been discarded).
func (e *Engine) Pending() int { return len(e.heap) }

// SetMaxEvents installs a safety limit on the total number of events the
// engine will process; Run returns ErrEventLimit once the limit is reached.
// Zero (the default) means no limit.
func (e *Engine) SetMaxEvents(n uint64) { e.maxEvents = n }

// AtFunc schedules fn(p, x) to run at virtual time t. Scheduling in the past
// panics: it is always a simulation bug. When fn is a top-level function and
// p a pointer (or nil), the call allocates nothing beyond the pooled event
// record.
func (e *Engine) AtFunc(t Time, fn Func, p any, x int64) EventID {
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	id := e.scheduleSeq(t, e.seq, fn, p, x)
	e.seq++
	return id
}

// AfterFunc schedules fn(p, x) to run d after the current time. Negative d
// panics.
func (e *Engine) AfterFunc(d Time, fn Func, p any, x int64) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.AtFunc(e.now+d, fn, p, x)
}

// ReserveSeq allocates and returns the next schedule-sequence slot without
// scheduling an event. Same-time events fire in slot order, so a reserved
// slot captures "the position an event scheduled right now would get" —
// deterministic replay drivers (the cluster layer's parallel windows) reserve
// slots before running an engine ahead, then spend them with AtSeqFunc so a
// late insertion still ties exactly as if it had been scheduled on time. An
// unspent slot is harmless: it only skips one tie-break value.
func (e *Engine) ReserveSeq() uint64 {
	s := e.seq
	e.seq++
	return s
}

// AtSeqFunc schedules fn(p, x) at virtual time t occupying a sequence slot
// previously returned by ReserveSeq, so that among same-time events it fires
// in the order the reservation — not this call — established. Like AtFunc, t in
// the past panics; so does an unreserved (future) slot, which could collide
// with a sequence number the engine has yet to hand out.
func (e *Engine) AtSeqFunc(t Time, seq uint64, fn Func, p any, x int64) EventID {
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	if seq >= e.seq {
		panic(fmt.Sprintf("sim: AtSeqFunc with unreserved sequence slot %d (next is %d)", seq, e.seq))
	}
	return e.scheduleSeq(t, seq, fn, p, x)
}

// scheduleSeq allocates a pooled record for the event and pushes it on the
// heap at sequence slot seq; it does not advance the engine's sequence
// counter.
func (e *Engine) scheduleSeq(t Time, seq uint64, fn Func, p any, x int64) EventID {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.rec = append(e.rec, eventRecord{gen: 1})
		idx = int32(len(e.rec) - 1)
	}
	r := &e.rec[idx]
	r.fn, r.p, r.x = fn, p, x
	r.state = evPending
	e.heap = append(e.heap, heapEntry{})
	e.siftUp(len(e.heap)-1, 0, heapEntry{at: t, seq: seq, idx: idx})
	return EventID{idx: idx, gen: r.gen}
}

// release returns a record (already removed from the heap) to the pool and
// bumps its generation so outstanding handles go stale.
func (e *Engine) release(idx int32) {
	r := &e.rec[idx]
	r.state = evFree
	r.fn, r.p = nil, nil
	if r.gen++; r.gen == 0 {
		r.gen = 1 // skip 0 on wrap: the zero EventID must stay invalid
	}
	e.free = append(e.free, idx)
}

// Cancel prevents a pending event from firing. It reports whether the
// cancellation had effect (false if the event already fired, was already
// canceled, or the handle is stale). Canceling is O(1); the engine discards
// canceled records lazily, compacting the heap in bulk when they outnumber
// live entries.
func (e *Engine) Cancel(id EventID) bool {
	if id.idx < 0 || int(id.idx) >= len(e.rec) {
		return false
	}
	r := &e.rec[id.idx]
	if r.gen != id.gen || r.state != evPending {
		return false
	}
	r.state = evCanceled
	r.fn, r.p = nil, nil // drop references early
	e.ncanceled++
	if e.ncanceled*2 > len(e.heap) {
		e.compact()
	}
	return true
}

// --- 4-ary heap of inline keys -------------------------------------------

// signBit flips a Time's sign so that signed order becomes unsigned order.
const signBit = 1 << 63

// before reports 1 when a orders strictly before b by (time, schedule
// sequence), else 0: the total order that makes same-time events fire in
// schedule order. It is one 128-bit unsigned compare of (at^signBit, seq),
// taken as the borrow out of a two-word subtraction, so it costs no branch
// and its result can index or mask directly.
func before(a, b heapEntry) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at)^signBit, uint64(b.at)^signBit, borrow)
	return borrow
}

// siftUp places x at hole i or above it, but never above top.
func (e *Engine) siftUp(i, top int, x heapEntry) {
	h := e.heap
	for i > top {
		parent := (i - 1) / 4
		if before(x, h[parent]) == 0 {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
}

// sink places x in the subtree whose root slot i is a hole (Floyd's method):
// the hole moves down to a leaf along the minimum children, then x sifts up
// from there, never above i. A node with four children picks the minimum by
// a tournament (two pair minima, then their minimum) with index and mask
// arithmetic instead of branches: which child wins is data-dependent, so a
// branch would be mispredicted about half the time.
func (e *Engine) sink(i int, x heapEntry) {
	h := e.heap
	n := len(h)
	top := i
	for {
		first := 4*i + 1
		if first+3 < n {
			c := (*[4]heapEntry)(h[first : first+4])
			a := before(c[1], c[0])     // 0 or 1: the first pair's minimum
			b := 2 + before(c[3], c[2]) // 2 or 3: the second pair's minimum
			m := a ^ ((a ^ b) & -before(c[b&3], c[a&3]))
			best := first + int(m&3)
			h[i] = h[best]
			i = best
			continue
		}
		if first < n { // one to three children, all of them leaves
			best := first
			for c := first + 1; c < n; c++ {
				if before(h[c], h[best]) != 0 {
					best = c
				}
			}
			h[i] = h[best]
			i = best
		}
		break
	}
	e.siftUp(i, top, x)
}

// popMin removes and returns the root entry.
func (e *Engine) popMin() heapEntry {
	h := e.heap
	root := h[0]
	n := len(h) - 1
	last := h[n]
	e.heap = h[:n]
	if n > 0 {
		e.sink(0, last)
	}
	return root
}

// compact removes every cancelled entry from the heap at once and restores
// the heap invariant. Called when cancelled entries exceed half the heap.
func (e *Engine) compact() {
	live := e.heap[:0]
	for _, ent := range e.heap {
		if e.rec[ent.idx].state == evCanceled {
			e.ncanceled--
			e.release(ent.idx)
		} else {
			live = append(live, ent)
		}
	}
	e.heap = live
	if len(live) > 1 {
		for i := (len(live) - 2) / 4; i >= 0; i-- {
			e.sink(i, live[i])
		}
	}
}

// --- Execution -----------------------------------------------------------

// Stop makes Run return after the currently executing event completes.
// The remaining events stay queued; Run can be called again to resume.
func (e *Engine) Stop() { e.stopped = true }

// ErrEventLimit is returned by Run when the event safety limit is hit.
var ErrEventLimit = fmt.Errorf("sim: event limit reached")

// Step fires the next pending event. It returns false when no events remain.
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		top := e.popMin()
		r := &e.rec[top.idx]
		if r.state == evCanceled {
			e.ncanceled--
			e.release(top.idx)
			continue
		}
		e.now = top.at
		e.processed++
		// Copy the callback out and release the record before firing, so the
		// callback can schedule into the freed slot and stale handles to this
		// event are already invalid while it runs.
		fn, p, x := r.fn, r.p, r.x
		e.release(top.idx)
		fn(p, x)
		return true
	}
	return false
}

// Run processes events until none remain, Stop is called, or the event
// limit is exceeded (in which case ErrEventLimit is returned).
func (e *Engine) Run() error {
	e.stopped = false
	for !e.stopped {
		if e.maxEvents > 0 && e.processed >= e.maxEvents {
			return ErrEventLimit
		}
		if !e.Step() {
			return nil
		}
	}
	return nil
}

// RunUntil processes all events scheduled at or before t, then advances the
// clock to t. It respects Stop and the event limit like Run.
func (e *Engine) RunUntil(t Time) error {
	e.stopped = false
	for !e.stopped {
		if e.maxEvents > 0 && e.processed >= e.maxEvents {
			return ErrEventLimit
		}
		next, ok := e.peek()
		if !ok || next > t {
			break
		}
		e.Step()
	}
	if e.now < t && !e.stopped {
		e.now = t
	}
	return nil
}

// Peek returns the timestamp of the next pending event without firing it.
// The second result is false when no events remain. Lockstep drivers (the
// cluster layer) use it to merge several engines by timestamp.
func (e *Engine) Peek() (Time, bool) { return e.peek() }

func (e *Engine) peek() (Time, bool) {
	for len(e.heap) > 0 {
		top := e.heap[0]
		if e.rec[top.idx].state == evCanceled {
			e.popMin()
			e.ncanceled--
			e.release(top.idx)
			continue
		}
		return top.at, true
	}
	return 0, false
}
