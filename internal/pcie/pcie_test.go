package pcie

import (
	"slices"
	"testing"

	"repro/internal/sim"
)

// engine returns a transfer engine with the default bus, serving its queue
// in priority order when priority is set.
func engine(t *testing.T, priority bool) (*sim.Engine, *Engine) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Priority = priority
	e := &Engine{}
	if err := e.Reset(eng, cfg); err != nil {
		t.Fatal(err)
	}
	return eng, e
}

func TestTransferTime(t *testing.T) {
	cfg := Config{Bandwidth: 8e9, BurstBytes: 4096, BurstOverhead: 0, IssueLatency: 0}
	// 8 MB at 8 GB/s = 1 ms.
	if got := cfg.TransferTime(8 << 20); got != sim.Time(float64(8<<20)/8e9*1e9) {
		t.Errorf("TransferTime = %v", got)
	}
	if cfg.TransferTime(0) != 0 {
		t.Error("zero transfer takes time")
	}
	// Burst overhead: 2.5 bursts round up to 3.
	cfg.BurstOverhead = sim.Microseconds(1)
	withOverhead := cfg.TransferTime(10 * 1024)
	cfg.BurstOverhead = 0
	plain := cfg.TransferTime(10 * 1024)
	if withOverhead-plain != 3*sim.Microseconds(1) {
		t.Errorf("burst overhead = %v, want 3us", withOverhead-plain)
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Bandwidth = 0 },
		func(c *Config) { c.BurstBytes = 0 },
		func(c *Config) { c.BurstOverhead = -1 },
		func(c *Config) { c.IssueLatency = -1 },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestEngineSerializesTransfers(t *testing.T) {
	eng, e := engine(t, false)
	var done []string
	submit := func(name string, bytes int64) {
		err := e.Submit(&Command{Name: name, Bytes: bytes, OnDone: func(at sim.Time) {
			done = append(done, name)
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	submit("a", 1<<20)
	if !e.busy {
		t.Fatal("engine idle with transfer in flight")
	}
	submit("b", 1<<10)
	if len(e.queue) != 1 {
		t.Fatalf("queue length = %d, want 1", len(e.queue))
	}
	eng.Run()
	if len(done) != 2 || done[0] != "a" || done[1] != "b" {
		t.Fatalf("completion order %v, want [a b] (FCFS)", done)
	}
	st := e.Stats()
	if st.Transfers != 2 || st.Bytes != 1<<20+1<<10 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPriorityPolicyOrdersQueue(t *testing.T) {
	eng, e := engine(t, true)
	var done []string
	submit := func(name string, prio int) {
		e.Submit(&Command{Name: name, Bytes: 1 << 20, Priority: prio, OnDone: func(at sim.Time) {
			done = append(done, name)
		}})
	}
	// "first" grabs the engine immediately; the rest queue and are served
	// by priority, ties in arrival order.
	submit("first", 0)
	submit("low1", 0)
	submit("high", 5)
	submit("low2", 0)
	eng.Run()
	want := []string{"first", "high", "low1", "low2"}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("order %v, want %v", done, want)
		}
	}
}

func TestSubmitRejectsInvalid(t *testing.T) {
	_, e := engine(t, false)
	if err := e.Submit(nil); err == nil {
		t.Fatal("nil command accepted")
	}
	if err := e.Submit(&Command{Bytes: 0}); err == nil {
		t.Fatal("zero-byte command accepted")
	}
}

func TestEngineTimingMatchesConfig(t *testing.T) {
	eng, e := engine(t, false)
	var finished sim.Time
	e.Submit(&Command{Bytes: 4096, OnDone: func(at sim.Time) { finished = at }})
	eng.Run()
	cfg := e.Config()
	if want := cfg.TransferTime(4096); finished != want {
		t.Errorf("completion at %v, want %v", finished, want)
	}
}

func TestWaitedTimeAccounting(t *testing.T) {
	eng, e := engine(t, false)
	e.Submit(&Command{Bytes: 1 << 20})
	e.Submit(&Command{Bytes: 1 << 20})
	eng.Run()
	st := e.Stats()
	cfg := e.Config()
	first := cfg.TransferTime(1 << 20)
	if st.WaitedTime != first {
		t.Errorf("WaitedTime = %v, want %v (second command waits for the first)", st.WaitedTime, first)
	}
	// MaxQueue counts waiting commands; the first command dispatched
	// immediately, so only the second ever waited.
	if st.MaxQueue != 1 {
		t.Errorf("MaxQueue = %d, want 1", st.MaxQueue)
	}
}

// TestDefaultPolicyIsFCFS requires the default bus to ignore priorities and
// serve its queue in arrival order.
func TestDefaultPolicyIsFCFS(t *testing.T) {
	eng, e := engine(t, DefaultConfig().Priority)
	var done []string
	for i, name := range []string{"first", "low", "high"} {
		e.Submit(&Command{Name: name, Bytes: 1 << 20, Priority: i, OnDone: func(sim.Time) {
			done = append(done, name)
		}})
	}
	eng.Run()
	if want := []string{"first", "low", "high"}; !slices.Equal(done, want) {
		t.Fatalf("order %v, want %v", done, want)
	}
}

func TestDirectionString(t *testing.T) {
	if HostToDevice.String() != "H2D" || DeviceToHost.String() != "D2H" {
		t.Error("Direction.String wrong")
	}
}
