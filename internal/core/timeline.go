package core

import (
	"sort"

	"repro/internal/sim"
)

// IntervalKind labels what an SM was doing during a timeline interval.
type IntervalKind int

// Interval kinds.
const (
	// IntervalSetup is the SM driver setting up the SM for a kernel.
	IntervalSetup IntervalKind = iota
	// IntervalRun is the SM executing thread blocks.
	IntervalRun
	// IntervalDrain is the SM draining (reserved, finishing resident
	// thread blocks, issuing nothing new).
	IntervalDrain
	// IntervalSave is the SM saving the context of its resident thread
	// blocks to off-chip memory.
	IntervalSave
)

func (k IntervalKind) String() string {
	switch k {
	case IntervalSetup:
		return "setup"
	case IntervalRun:
		return "run"
	case IntervalDrain:
		return "drain"
	case IntervalSave:
		return "save"
	}
	return "?"
}

// Interval is one contiguous activity of an SM on behalf of one kernel.
type Interval struct {
	SM     int
	Kind   IntervalKind
	Start  sim.Time
	End    sim.Time
	Kernel string
	Launch uint64
	CtxID  int
}

// Timeline records per-SM activity intervals. A nil *Timeline is valid and
// records nothing, so recording can be disabled without sprinkling
// conditionals.
type Timeline struct {
	open      map[int]*Interval
	Intervals []Interval
}

// NewTimeline returns an empty timeline recorder.
func NewTimeline() *Timeline {
	return &Timeline{open: make(map[int]*Interval)}
}

// transition closes the SM's open interval (if any) at time now and opens a
// new one of the given kind, unless kind < 0 in which case the SM goes
// quiet.
func (t *Timeline) transition(smID int, now sim.Time, kind IntervalKind, kernel string, launch uint64, ctxID int) {
	if t == nil {
		return
	}
	t.closeOpen(smID, now)
	t.open[smID] = &Interval{
		SM: smID, Kind: kind, Start: now, End: -1,
		Kernel: kernel, Launch: launch, CtxID: ctxID,
	}
}

func (t *Timeline) closeOpen(smID int, now sim.Time) {
	if t == nil {
		return
	}
	if iv := t.open[smID]; iv != nil {
		iv.End = now
		if iv.End > iv.Start {
			t.Intervals = append(t.Intervals, *iv)
		}
		delete(t.open, smID)
	}
}

// Finish closes all open intervals at time now and sorts the records.
func (t *Timeline) Finish(now sim.Time) {
	if t == nil {
		return
	}
	for smID := range t.open {
		t.closeOpen(smID, now)
	}
	sort.Slice(t.Intervals, func(i, j int) bool {
		if t.Intervals[i].Start != t.Intervals[j].Start {
			return t.Intervals[i].Start < t.Intervals[j].Start
		}
		return t.Intervals[i].SM < t.Intervals[j].SM
	})
}

// Stats aggregates the framework's activity counters.
type Stats struct {
	KernelsSubmitted  int
	KernelsActivated  int
	KernelsFinished   int
	TBsIssued         int
	TBsCompleted      int
	TBsPreempted      int
	TBsRestored       int
	TBsFlushed        int // thread blocks cancelled by a flush
	TBsRestarted      int // flushed thread blocks re-issued from scratch
	Preemptions       int // SM reservations
	PreemptionsDone   int
	ContextSavedBytes int64
	ContextRestored   int64
	SaveTime          sim.Time // total time SMs spent saving context
	RestoreTime       sim.Time // total time SMs spent restoring context
	WastedWork        sim.Time // execution time discarded by flushes
	PreemptLatency    sim.Time // total reservation-to-completion time
	SetupTime         sim.Time
	SMBusyTime        sim.Time // integral of busy SMs over time
	MaxPTBQ           int
	MaxActive         int
}

// Accumulate folds another engine's counters into s — the cluster layer
// rolls per-node stats up into a fleet total with it. Counters and times
// add; MaxPTBQ and MaxActive are high-water marks, so they take the max.
// TestStatsAccumulateFoldsEveryField fails on a Stats field added without
// its fold here.
func (s *Stats) Accumulate(o Stats) {
	s.KernelsSubmitted += o.KernelsSubmitted
	s.KernelsActivated += o.KernelsActivated
	s.KernelsFinished += o.KernelsFinished
	s.TBsIssued += o.TBsIssued
	s.TBsCompleted += o.TBsCompleted
	s.TBsPreempted += o.TBsPreempted
	s.TBsRestored += o.TBsRestored
	s.TBsFlushed += o.TBsFlushed
	s.TBsRestarted += o.TBsRestarted
	s.Preemptions += o.Preemptions
	s.PreemptionsDone += o.PreemptionsDone
	s.ContextSavedBytes += o.ContextSavedBytes
	s.ContextRestored += o.ContextRestored
	s.SaveTime += o.SaveTime
	s.RestoreTime += o.RestoreTime
	s.WastedWork += o.WastedWork
	s.PreemptLatency += o.PreemptLatency
	s.SetupTime += o.SetupTime
	s.SMBusyTime += o.SMBusyTime
	if o.MaxPTBQ > s.MaxPTBQ {
		s.MaxPTBQ = o.MaxPTBQ
	}
	if o.MaxActive > s.MaxActive {
		s.MaxActive = o.MaxActive
	}
}
