// Package pcie models the GPU's data-transfer engine and the PCI Express
// bus between CPU and GPU memory (§2.2). Transfers move data in fixed-size
// bursts; the engine executes one transfer command at a time (a running
// command has exclusive access to the engine and runs to completion, like
// the baseline architecture), and picks the next command from its DMA queue
// in arrival order (FCFS) for the DSS experiments or in priority order (NPQ)
// for the preemption-mechanism experiments, matching §4.2/§4.4 of the paper.
package pcie

import (
	"fmt"

	"repro/internal/sim"
)

// Direction of a transfer.
type Direction int

// Transfer directions.
const (
	HostToDevice Direction = iota
	DeviceToHost
)

func (d Direction) String() string {
	if d == HostToDevice {
		return "H2D"
	}
	return "D2H"
}

// Config holds the bus parameters (Table 2: 500 MHz, 32 lanes, 4 KB bursts).
type Config struct {
	// Bandwidth is the effective bus bandwidth in bytes per second.
	Bandwidth int64
	// BurstBytes is the DMA burst size.
	BurstBytes int64
	// BurstOverhead is the fixed per-burst latency (packetization, DMA
	// descriptor processing).
	BurstOverhead sim.Time
	// IssueLatency is the fixed cost of starting a transfer command.
	IssueLatency sim.Time
	// Priority makes the engine run the highest-priority queued transfer
	// next, ties in arrival order (the non-preemptive priority-queue transfer
	// scheduling of §4.2/§4.3); false runs transfers in arrival order.
	Priority bool
}

// DefaultConfig returns the bus parameters used in the evaluation.
// 500 MHz x 32 lanes with PCIe 2.0 encoding yields about 8 GB/s effective.
func DefaultConfig() Config {
	return Config{
		Bandwidth:     8e9,
		BurstBytes:    4 * 1024,
		BurstOverhead: sim.Microseconds(0.05),
		IssueLatency:  sim.Microseconds(5),
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case c.Bandwidth <= 0:
		return fmt.Errorf("pcie: Bandwidth must be positive, got %d", c.Bandwidth)
	case c.BurstBytes <= 0:
		return fmt.Errorf("pcie: BurstBytes must be positive, got %d", c.BurstBytes)
	case c.BurstOverhead < 0:
		return fmt.Errorf("pcie: negative BurstOverhead")
	case c.IssueLatency < 0:
		return fmt.Errorf("pcie: negative IssueLatency")
	}
	return nil
}

// TransferTime returns the bus time for a transfer of the given size.
func (c *Config) TransferTime(bytes int64) sim.Time {
	if bytes <= 0 {
		return 0
	}
	bursts := (bytes + c.BurstBytes - 1) / c.BurstBytes
	wire := sim.Time(float64(bytes) / float64(c.Bandwidth) * float64(sim.Second))
	return c.IssueLatency + wire + sim.Time(bursts)*c.BurstOverhead
}

// DispatchFloor returns the latency floor of the dispatch path over this
// link: the minimum delay between issuing a transfer command and the engine
// observing any effect of it, i.e. the transfer time of the smallest
// non-empty command (issue latency + one burst's overhead + its wire time).
// No dispatched request can touch a device behind this link sooner, which
// makes the floor a provable scheduling lookahead for fleet drivers (the
// cluster layer runs node engines this far past an arrival before its
// placement must land).
func (c *Config) DispatchFloor() sim.Time {
	return c.TransferTime(1)
}

// Command is one DMA transfer request.
type Command struct {
	CtxID    int
	Name     string
	Dir      Direction
	Bytes    int64
	Priority int
	Enqueued sim.Time
	// OnDone is invoked when the transfer completes.
	OnDone func(at sim.Time)
}

// Stats aggregates transfer-engine activity.
type Stats struct {
	Transfers  int
	Bytes      int64
	BusyTime   sim.Time
	MaxQueue   int
	WaitedTime sim.Time // total queueing delay across commands
}

// Engine is the data-transfer engine. The zero value is unusable until
// Reset configures it.
type Engine struct {
	eng     *sim.Engine
	cfg     Config
	queue   []*Command
	busy    bool
	running *Command // the in-flight transfer (engine runs one at a time)
	stats   Stats
}

// Reset configures the transfer engine on eng and returns it to its initial
// state — empty queue, nothing in flight, zero statistics — keeping the
// queue's capacity. Queued and in-flight commands are dropped without
// completing. An invalid cfg leaves the engine untouched.
func (e *Engine) Reset(eng *sim.Engine, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	e.eng, e.cfg = eng, cfg
	clear(e.queue)
	e.queue = e.queue[:0]
	e.busy, e.running = false, nil
	e.stats = Stats{}
	return nil
}

// Config returns the engine's bus configuration.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns a snapshot of the engine statistics.
func (e *Engine) Stats() Stats { return e.stats }

// Submit enqueues a transfer command. The engine notifies completion through
// cmd.OnDone.
func (e *Engine) Submit(cmd *Command) error {
	if cmd == nil || cmd.Bytes <= 0 {
		return fmt.Errorf("pcie: invalid transfer command")
	}
	cmd.Enqueued = e.eng.Now()
	e.queue = append(e.queue, cmd)
	if len(e.queue) > e.stats.MaxQueue {
		e.stats.MaxQueue = len(e.queue)
	}
	e.dispatch()
	return nil
}

func (e *Engine) dispatch() {
	if e.busy || len(e.queue) == 0 {
		return
	}
	idx := 0
	if e.cfg.Priority {
		for i, c := range e.queue {
			if c.Priority > e.queue[idx].Priority {
				idx = i
			}
		}
	}
	cmd := e.queue[idx]
	copy(e.queue[idx:], e.queue[idx+1:])
	e.queue[len(e.queue)-1] = nil
	e.queue = e.queue[:len(e.queue)-1]
	e.busy = true
	e.running = cmd
	dur := e.cfg.TransferTime(cmd.Bytes)
	e.stats.Transfers++
	e.stats.Bytes += cmd.Bytes
	e.stats.BusyTime += dur
	e.stats.WaitedTime += e.eng.Now() - cmd.Enqueued
	e.eng.AfterFunc(dur, transferDone, e, 0)
}

// transferDone is the closure-free completion callback of the in-flight
// transfer: exactly one command runs at a time, so the engine itself carries
// the argument.
func transferDone(p any, _ int64) {
	e := p.(*Engine)
	cmd := e.running
	e.running = nil
	e.busy = false
	if cmd.OnDone != nil {
		cmd.OnDone(e.eng.Now())
	}
	e.dispatch()
}
