package cpu

import (
	"testing"

	"repro/internal/sim"
)

func model(t *testing.T, cfg Config) (*sim.Engine, *Model) {
	t.Helper()
	eng := sim.NewEngine()
	m, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, m
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.ThreadsPerCore = 0 },
		func(c *Config) { c.SMTSlowdown = 0.5 },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestPhasesRunConcurrentlyUpToCapacity(t *testing.T) {
	// 2 cores x 1 thread, no SMT penalty.
	eng, m := model(t, Config{Cores: 2, ThreadsPerCore: 1, SMTSlowdown: 1})
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		m.Exec(sim.Microseconds(10), func() { ends = append(ends, eng.Now()) })
	}
	eng.Run()
	if len(ends) != 2 {
		t.Fatal("phases did not complete")
	}
	for _, e := range ends {
		if e != sim.Microseconds(10) {
			t.Errorf("phase ended at %v, want 10us (concurrent)", e)
		}
	}
}

func TestPhasesQueueBeyondCapacity(t *testing.T) {
	eng, m := model(t, Config{Cores: 1, ThreadsPerCore: 1, SMTSlowdown: 1})
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		m.Exec(sim.Microseconds(10), func() { ends = append(ends, eng.Now()) })
	}
	if q := len(m.queue) - m.qhead; m.busy != 1 || q != 2 {
		t.Fatalf("busy=%d queue=%d, want 1/2", m.busy, q)
	}
	eng.Run()
	want := []sim.Time{sim.Microseconds(10), sim.Microseconds(20), sim.Microseconds(30)}
	for i, e := range ends {
		if e != want[i] {
			t.Errorf("phase %d ended at %v, want %v (FCFS serialization)", i, e, want[i])
		}
	}
	if m.Queued != 2 || m.Dispatched != 3 {
		t.Errorf("stats: queued=%d dispatched=%d", m.Queued, m.Dispatched)
	}
}

func TestSMTSlowdownApplied(t *testing.T) {
	// 1 core, 2-way SMT, 2x penalty: the second concurrent phase (and any
	// dispatched while both threads busy) runs at double duration.
	eng, m := model(t, Config{Cores: 1, ThreadsPerCore: 2, SMTSlowdown: 2})
	var first, second sim.Time
	m.Exec(sim.Microseconds(10), func() { first = eng.Now() })
	m.Exec(sim.Microseconds(10), func() { second = eng.Now() })
	eng.Run()
	if first != sim.Microseconds(10) {
		t.Errorf("first phase ended at %v, want 10us (alone on the core)", first)
	}
	if second != sim.Microseconds(20) {
		t.Errorf("second phase ended at %v, want 20us (SMT sibling, 2x)", second)
	}
}

func TestZeroDurationPhaseCompletes(t *testing.T) {
	eng, m := model(t, DefaultConfig())
	done := false
	m.Exec(0, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("zero-duration phase never completed")
	}
}

func TestExecPanicsOnBadInput(t *testing.T) {
	_, m := model(t, DefaultConfig())
	for _, f := range []func(){
		func() { m.Exec(-1, func() {}) },
		func() { m.Exec(1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad Exec input did not panic")
				}
			}()
			f()
		}()
	}
}

func TestEightProcessesFitTheTable2Host(t *testing.T) {
	// The paper's largest workloads have 8 processes; the Table 2 host has
	// 8 hardware threads, so no phase should ever queue.
	eng, m := model(t, DefaultConfig())
	for i := 0; i < 8; i++ {
		m.Exec(sim.Microseconds(50), func() {})
	}
	if q := len(m.queue) - m.qhead; q != 0 {
		t.Fatalf("queue=%d with 8 phases on 8 threads", q)
	}
	eng.Run()
	if m.Queued != 0 {
		t.Errorf("phases queued: %d", m.Queued)
	}
}
