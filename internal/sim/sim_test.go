package sim

import (
	"slices"
	"testing"
	"testing/quick"
)

// canceled reports whether the handle refers to a canceled event whose
// record has not been reclaimed yet. Stale handles report false.
func canceled(e *Engine, id EventID) bool {
	if id.idx < 0 || int(id.idx) >= len(e.rec) {
		return false
	}
	r := &e.rec[id.idx]
	return r.gen == id.gen && r.state == evCanceled
}

// nop is an event callback that does nothing.
func nop(any, int64) {}

func TestTimeConversions(t *testing.T) {
	cases := []struct {
		us   float64
		want Time
	}{
		{0, 0},
		{1, 1000},
		{2.42, 2420},
		{98.56, 98560},
		{0.0005, 1}, // rounds to nearest ns
		{-1, -1000},
	}
	for _, c := range cases {
		if got := Microseconds(c.us); got != c.want {
			t.Errorf("Microseconds(%v) = %d, want %d", c.us, got, c.want)
		}
	}
	if got := (2500 * Nanosecond).Microseconds(); got != 2.5 {
		t.Errorf("Microseconds() = %v, want 2.5", got)
	}
	if got := (3 * Millisecond).Milliseconds(); got != 3 {
		t.Errorf("Milliseconds() = %v, want 3", got)
	}
	if got := (2 * Second).Seconds(); got != 2 {
		t.Errorf("Seconds() = %v, want 2", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0"},
		{500, "500ns"},
		{1500, "1.50us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.0000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.AtFunc(30, func(any, int64) { order = append(order, 3) }, nil, 0)
	e.AtFunc(10, func(any, int64) { order = append(order, 1) }, nil, 0)
	e.AtFunc(20, func(any, int64) { order = append(order, 2) }, nil, 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %v, want 30", e.Now())
	}
}

func TestEngineTiesFireInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.AtFunc(5, func(any, int64) { order = append(order, i) }, nil, 0)
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v, want ascending", order)
		}
	}
}

// TestEngineReservedSeqOrdersTies pins the reserved-slot contract the
// cluster's lookahead merge rests on: a sequence number reserved early buys
// its eventual event the tie-break position of the reservation, not of the
// AtSeqFunc call. Events at one timestamp must fire in reserved order even
// when scheduled in reverse.
func TestEngineReservedSeqOrdersTies(t *testing.T) {
	e := NewEngine()
	seqs := make([]uint64, 4)
	for i := range seqs {
		seqs[i] = e.ReserveSeq()
	}
	var order []int64
	rec := func(_ any, x int64) { order = append(order, x) }
	for i := len(seqs) - 1; i >= 0; i-- {
		e.AtSeqFunc(5, seqs[i], rec, nil, int64(i))
	}
	// A plainly scheduled tie fires after every reserved slot: its sequence
	// number postdates the reservations.
	e.AtFunc(5, rec, nil, 99)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 1, 2, 3, 99}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestEngineReserveSeqInterleavesWithPlainScheduling pins that reserving a
// slot consumes exactly one position in the global tie-break sequence: a
// plain event scheduled after the reservation sorts after the reserved
// event at the same timestamp, and one scheduled before sorts before.
func TestEngineReserveSeqInterleavesWithPlainScheduling(t *testing.T) {
	e := NewEngine()
	var order []int64
	rec := func(_ any, x int64) { order = append(order, x) }
	e.AtFunc(7, rec, nil, 1)
	seq := e.ReserveSeq()
	e.AtFunc(7, rec, nil, 3)
	e.AtSeqFunc(7, seq, rec, nil, 2)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

// TestEngineAtSeqFuncUnreservedPanics pins the misuse guard: scheduling on a
// sequence slot that was never handed out by ReserveSeq is a bug, not a
// silent reordering.
func TestEngineAtSeqFuncUnreservedPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("AtSeqFunc on an unreserved slot did not panic")
		}
	}()
	e.AtSeqFunc(1, 42, func(any, int64) {}, nil, 0)
}

func TestEngineAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.AtFunc(100, func(any, int64) {
		e.AfterFunc(50, func(any, int64) { at = e.Now() }, nil, 0)
	}, nil, 0)
	e.Run()
	if at != 150 {
		t.Errorf("AfterFunc fired at %v, want 150", at)
	}
}

func TestEngineTypedDispatch(t *testing.T) {
	e := NewEngine()
	type box struct{ got []int64 }
	b := &box{}
	fn := func(p any, x int64) { p.(*box).got = append(p.(*box).got, x) }
	e.AtFunc(20, fn, b, 2)
	e.AtFunc(10, fn, b, 1)
	id := e.AfterFunc(30, fn, b, 3)
	if id.gen == 0 {
		t.Fatal("AfterFunc returned invalid handle")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(b.got) != 3 || b.got[0] != 1 || b.got[1] != 2 || b.got[2] != 3 {
		t.Fatalf("typed dispatch order = %v, want [1 2 3]", b.got)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.AtFunc(100, nop, nil, 0)
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.AtFunc(50, nop, nil, 0)
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	e.AfterFunc(-1, nop, nil, 0)
}

func TestEngineNilCallbackPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback did not panic")
		}
	}()
	e.AfterFunc(1, nil, nil, 0)
}

func TestEngineNilTypedCallbackPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("nil typed callback did not panic")
		}
	}()
	e.AtFunc(1, nil, nil, 0)
}

func TestEventCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.AtFunc(10, func(any, int64) { fired = true }, nil, 0)
	e.AtFunc(20, nop, nil, 0) // keeps the heap >50% live so ev is not compacted away
	if !e.Cancel(ev) {
		t.Fatal("Cancel returned false on pending event")
	}
	if e.Cancel(ev) {
		t.Fatal("second Cancel returned true")
	}
	if !canceled(e, ev) {
		t.Fatal("Canceled() = false after cancel")
	}
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestEventCancelAfterFiring(t *testing.T) {
	e := NewEngine()
	ev := e.AtFunc(10, nop, nil, 0)
	e.Run()
	if e.Cancel(ev) {
		t.Fatal("Cancel returned true after the event fired")
	}
	if canceled(e, ev) {
		t.Fatal("Canceled returned true for a fired event")
	}
}

// The zero EventID names record slot 0 with generation 0, which no live
// event ever carries: it must stay inert while a real event occupies that
// slot, whether the event is pending or canceled.
func TestCancelZeroEventID(t *testing.T) {
	e := NewEngine()
	var ev EventID
	if ev.gen != 0 {
		t.Fatal("zero EventID is valid")
	}
	if e.Cancel(ev) {
		t.Fatal("zero EventID Cancel returned true on an empty engine")
	}
	var fired []int
	e.AtFunc(10, func(any, int64) { fired = append(fired, 0) }, nil, 0) // occupies slot 0
	if e.Cancel(ev) {
		t.Fatal("zero EventID cancelled the event in slot 0")
	}
	if canceled(e, ev) {
		t.Fatal("zero EventID Canceled returned true")
	}
	e.Run()
	if len(fired) != 1 {
		t.Fatalf("slot-0 event fired %d times, want 1", len(fired))
	}
	late := e.AtFunc(20, func(any, int64) { fired = append(fired, 1) }, nil, 0) // reuses slot 0
	e.AtFunc(30, func(any, int64) { fired = append(fired, 2) }, nil, 0)         // keeps late's record from compaction
	if !e.Cancel(late) || !canceled(e, late) {
		t.Fatal("could not cancel the pending slot-0 event")
	}
	if canceled(e, ev) {
		t.Fatal("zero EventID reports the canceled slot-0 event as its own")
	}
	e.Run()
	if want := []int{0, 2}; !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

// A handle must go stale when its pooled record is reused: canceling it then
// must not touch the slot's new occupant, and Canceled must not report the
// occupant's state through it.
func TestStaleHandleAfterRecordReuse(t *testing.T) {
	e := NewEngine()
	var fired []int
	first := e.AtFunc(10, func(any, int64) { fired = append(fired, 1) }, nil, 0)
	// Firing releases the record to the pool; the next event reuses it.
	e.Run()
	second := e.AtFunc(20, func(any, int64) { fired = append(fired, 2) }, nil, 0)
	if second.idx != first.idx {
		t.Fatalf("second event took slot %d, want the freed slot %d", second.idx, first.idx)
	}
	if e.Cancel(first) {
		t.Fatal("stale handle cancelled the slot's new occupant")
	}
	e.Run()
	if e.Cancel(second) {
		t.Fatal("Cancel returned true after second event fired")
	}
	third := e.AtFunc(30, func(any, int64) { fired = append(fired, 3) }, nil, 0) // reuses it again
	e.AtFunc(40, func(any, int64) { fired = append(fired, 4) }, nil, 0)          // keeps third's record from compaction
	if !e.Cancel(third) || !canceled(e, third) {
		t.Fatal("live handle could not cancel the slot's third occupant")
	}
	if canceled(e, first) || canceled(e, second) {
		t.Fatal("stale handle reports the third occupant's cancellation")
	}
	e.Run()
	if want := []int{1, 2, 4}; !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.AtFunc(Time(i), func(any, int64) {
			count++
			if count == 3 {
				e.Stop()
			}
		}, nil, 0)
	}
	e.Run()
	if count != 3 {
		t.Fatalf("processed %d events after Stop, want 3", count)
	}
	// Run can resume.
	e.Run()
	if count != 10 {
		t.Fatalf("processed %d events after resume, want 10", count)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.AtFunc(at, func(any, int64) { fired = append(fired, at) }, nil, 0)
	}
	if err := e.RunUntil(25); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10 and 20", fired)
	}
	if e.Now() != 25 {
		t.Errorf("Now() = %v, want 25", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %v after Run, want all four", fired)
	}
}

func TestEngineMaxEvents(t *testing.T) {
	e := NewEngine()
	var reschedule Func
	reschedule = func(any, int64) { e.AfterFunc(1, reschedule, nil, 0) }
	e.AfterFunc(1, reschedule, nil, 0)
	e.SetMaxEvents(100)
	if err := e.Run(); err != ErrEventLimit {
		t.Fatalf("Run = %v, want ErrEventLimit", err)
	}
	if e.Processed() != 100 {
		t.Errorf("Processed = %d, want 100", e.Processed())
	}
}

func TestEnginePendingCountsCanceled(t *testing.T) {
	e := NewEngine()
	ev := e.AtFunc(10, nop, nil, 0)
	e.AtFunc(20, nop, nil, 0)
	e.Cancel(ev)
	if e.Pending() != 2 {
		t.Errorf("Pending = %d, want 2 (lazy cancellation)", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after Run, want 0", e.Pending())
	}
}

// When cancelled entries outnumber live ones the heap compacts in bulk,
// reclaiming the records without waiting for them to surface.
func TestEngineCompactsWhenMostlyCanceled(t *testing.T) {
	e := NewEngine()
	var ids []EventID
	for i := 0; i < 100; i++ {
		ids = append(ids, e.AtFunc(Time(i+1), nop, nil, 0))
	}
	for i := 0; i < 60; i++ {
		if !e.Cancel(ids[i]) {
			t.Fatalf("Cancel(%d) failed", i)
		}
	}
	// Compaction fires as soon as cancelled entries outnumber live ones (at
	// the 51st cancel here), so well under the 100 scheduled remain queued.
	if e.Pending() >= 60 {
		t.Errorf("Pending = %d after bulk cancel, want a compacted heap", e.Pending())
	}
	fired := 0
	for e.Step() {
		fired++
	}
	if fired != 40 {
		t.Errorf("fired %d events, want the 40 live ones", fired)
	}
}

// The steady-state scheduling path must not allocate: records and heap
// slots are pooled and reused.
func TestEngineScheduleIsAllocationFree(t *testing.T) {
	e := NewEngine()
	tick := func(p any, x int64) {}
	// Warm up the pool and the heap's backing array.
	for i := 0; i < 64; i++ {
		e.AtFunc(e.Now()+1, tick, e, 0)
	}
	for e.Step() {
	}
	avg := testing.AllocsPerRun(1000, func() {
		e.AtFunc(e.Now()+1, tick, e, 0)
		e.Step()
	})
	if avg != 0 {
		t.Errorf("schedule+fire allocates %v times per op, want 0", avg)
	}
}

func TestEngineStepReturnsFalseWhenEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
}

// Property: for any set of event times, the engine fires them in
// non-decreasing time order and ends with the clock at the max.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		var max Time
		for _, d := range delays {
			at := Time(d)
			if at > max {
				max = at
			}
			e.AtFunc(at, func(any, int64) { fired = append(fired, e.Now()) }, nil, 0)
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delays) == 0 || e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
