// Package cpu models the host processor of Table 2: a multi-core CPU
// (4 cores, 2-way SMT in the evaluation machine) on which the processes'
// CPU phases execute. With at most one runnable phase per process and
// workloads of up to 8 processes, contention is rare — exactly why the
// paper's methodology can use coarse CPU traces — but the model makes the
// assumption checkable rather than implicit: when more phases are runnable
// than hardware threads, the excess waits, and when SMT siblings share a
// core, both phases run at a configurable slowdown.
package cpu

import (
	"fmt"

	"repro/internal/sim"
)

// Config describes the host CPU.
type Config struct {
	// Cores is the number of physical cores.
	Cores int
	// ThreadsPerCore is the SMT width.
	ThreadsPerCore int
	// SMTSlowdown is the factor applied to a phase's duration while more
	// phases are running than physical cores (SMT siblings sharing
	// pipelines). 1.0 disables the penalty.
	SMTSlowdown float64
}

// DefaultConfig returns the Table 2 host (4 cores, 2-way threading).
func DefaultConfig() Config {
	return Config{Cores: 4, ThreadsPerCore: 2, SMTSlowdown: 1.25}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("cpu: Cores must be positive, got %d", c.Cores)
	case c.ThreadsPerCore <= 0:
		return fmt.Errorf("cpu: ThreadsPerCore must be positive, got %d", c.ThreadsPerCore)
	case c.SMTSlowdown < 1:
		return fmt.Errorf("cpu: SMTSlowdown must be >= 1, got %v", c.SMTSlowdown)
	}
	return nil
}

// Model is the host CPU scheduler. Phases are served FCFS when all hardware
// threads are busy. The SMT penalty is applied pessimistically at dispatch
// time based on the occupancy at that moment (a deterministic, conservative
// approximation that avoids re-scaling in-flight phases): one slowdown
// decision and one rounding per phase. A process's CPU phase is a maximal
// run of adjacent trace CPU ops (see package proc), or the issue cost of one
// command.
type Model struct {
	eng   *sim.Engine
	cfg   Config
	busy  int
	queue []pending
	qhead int // index of the oldest waiting phase; the queue is trimmed lazily

	// phases pools the in-flight phase records so completion events carry a
	// pool index instead of a captured closure.
	phases    []phaseSlot
	freeSlots []int32

	// Stats
	Dispatched uint64
	Queued     uint64
	BusyTime   sim.Time
}

type pending struct {
	dur  sim.Time
	done func()
}

type phaseSlot struct {
	done func()
}

// New builds a CPU model.
func New(eng *sim.Engine, cfg Config) (*Model, error) {
	m := &Model{}
	if err := m.Reset(eng, cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset returns the model to the state New(eng, cfg) produces — no running
// or waiting phases, zero statistics — keeping the queue's and the phase
// pool's capacity. Running and waiting phases are dropped without
// completing. An invalid cfg leaves the model untouched.
func (m *Model) Reset(eng *sim.Engine, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	m.eng, m.cfg = eng, cfg
	m.busy = 0
	clear(m.queue)
	m.queue, m.qhead = m.queue[:0], 0
	clear(m.phases)
	m.phases, m.freeSlots = m.phases[:0], m.freeSlots[:0]
	m.Dispatched, m.Queued, m.BusyTime = 0, 0, 0
	return nil
}

// Exec runs a CPU phase of the given duration, invoking done when it
// completes. Zero-duration phases complete via a zero-delay event to keep
// event ordering consistent.
func (m *Model) Exec(dur sim.Time, done func()) {
	if dur < 0 {
		panic("cpu: negative phase duration")
	}
	if done == nil {
		panic("cpu: nil completion callback")
	}
	if m.busy >= m.cfg.Cores*m.cfg.ThreadsPerCore {
		m.Queued++
		m.queue = append(m.queue, pending{dur: dur, done: done})
		return
	}
	m.dispatch(dur, done)
}

func (m *Model) dispatch(dur sim.Time, done func()) {
	m.busy++
	m.Dispatched++
	effective := dur
	if m.busy > m.cfg.Cores && m.cfg.SMTSlowdown > 1 {
		effective = sim.Time(float64(dur) * m.cfg.SMTSlowdown)
	}
	m.BusyTime += effective
	var idx int32
	if n := len(m.freeSlots); n > 0 {
		idx = m.freeSlots[n-1]
		m.freeSlots = m.freeSlots[:n-1]
	} else {
		m.phases = append(m.phases, phaseSlot{})
		idx = int32(len(m.phases) - 1)
	}
	m.phases[idx].done = done
	m.eng.AfterFunc(effective, phaseDone, m, int64(idx))
}

// phaseDone is the closure-free completion callback of one CPU phase; the
// scalar argument indexes the pooled phase record holding its continuation.
func phaseDone(p any, x int64) {
	m := p.(*Model)
	done := m.phases[x].done
	m.phases[x].done = nil
	m.freeSlots = append(m.freeSlots, int32(x))
	m.busy--
	done()
	m.drain()
}

func (m *Model) drain() {
	for m.qhead < len(m.queue) && m.busy < m.cfg.Cores*m.cfg.ThreadsPerCore {
		next := m.queue[m.qhead]
		m.queue[m.qhead] = pending{}
		m.qhead++
		if m.qhead == len(m.queue) {
			m.queue = m.queue[:0]
			m.qhead = 0
		}
		m.dispatch(next.dur, next.done)
	}
}
