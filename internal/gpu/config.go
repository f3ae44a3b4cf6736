// Package gpu models the GPU device: the machine configuration of the
// simulated NVIDIA GK110 (Kepler)-class chip (Table 2 of the paper), the
// per-SM occupancy calculator, and GPU contexts with the context table added
// by the paper's multiprogramming extensions (§3.1).
package gpu

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Config holds the machine parameters of the simulated GPU. The defaults
// reproduce Table 2 of the paper (NVIDIA Tesla K20c, GK110).
type Config struct {
	// NumSMs is the number of streaming multiprocessors.
	NumSMs int
	// RegsPerSM is the size of the register file per SM, in registers.
	RegsPerSM int
	// RegBytes is the size of one register in bytes.
	RegBytes int
	// SharedMemConfigs are the selectable shared-memory sizes per SM, in
	// bytes, smallest first (16/32/48 KB on GK110; Table 2 footnote: the SM
	// is configured with the first size that satisfies the kernel's
	// shared-memory requirement).
	SharedMemConfigs []int
	// MaxTBsPerSM is the hardware thread-block slot limit per SM.
	MaxTBsPerSM int
	// MaxThreadsPerSM is the hardware thread limit per SM.
	MaxThreadsPerSM int
	// MemBandwidth is the global-memory bandwidth in bytes per second.
	MemBandwidth int64
	// MemSize is the physical GPU memory size in bytes: the HBM capacity a
	// cluster node's working-set ledger enforces at admission.
	MemSize int64
	// ClockHz is the SM clock (informational).
	ClockHz int64
	// PipelineDrainLatency is the time to drain in-flight instructions
	// before the context-save trap can run (precise exceptions, §3.2).
	PipelineDrainLatency sim.Time
	// SMSetupLatency is the time for the SM driver to set up an SM for a
	// kernel (installing KSR-derived state; §2.3).
	SMSetupLatency sim.Time
}

// DefaultConfig returns the GK110 configuration of Table 2.
func DefaultConfig() Config {
	return Config{
		NumSMs:               13,
		RegsPerSM:            65536,
		RegBytes:             4,
		SharedMemConfigs:     []int{16 * 1024, 32 * 1024, 48 * 1024},
		MaxTBsPerSM:          16,
		MaxThreadsPerSM:      2048,
		MemBandwidth:         208e9,
		MemSize:              5 * 1024 * 1024 * 1024,
		ClockHz:              706e6,
		PipelineDrainLatency: sim.Microseconds(0.5),
		SMSetupLatency:       sim.Microseconds(1.0),
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case c.NumSMs <= 0:
		return fmt.Errorf("gpu: NumSMs must be positive, got %d", c.NumSMs)
	case c.RegsPerSM <= 0:
		return fmt.Errorf("gpu: RegsPerSM must be positive, got %d", c.RegsPerSM)
	case c.RegBytes <= 0:
		return fmt.Errorf("gpu: RegBytes must be positive, got %d", c.RegBytes)
	case len(c.SharedMemConfigs) == 0:
		return fmt.Errorf("gpu: no shared-memory configurations")
	case c.MaxTBsPerSM <= 0:
		return fmt.Errorf("gpu: MaxTBsPerSM must be positive, got %d", c.MaxTBsPerSM)
	case c.MaxThreadsPerSM <= 0:
		return fmt.Errorf("gpu: MaxThreadsPerSM must be positive, got %d", c.MaxThreadsPerSM)
	case c.MemBandwidth <= 0:
		return fmt.Errorf("gpu: MemBandwidth must be positive, got %d", c.MemBandwidth)
	case c.MemSize <= 0:
		return fmt.Errorf("gpu: MemSize must be positive, got %d", c.MemSize)
	case c.PipelineDrainLatency < 0:
		return fmt.Errorf("gpu: negative PipelineDrainLatency")
	case c.SMSetupLatency < 0:
		return fmt.Errorf("gpu: negative SMSetupLatency")
	}
	for i, s := range c.SharedMemConfigs {
		if s <= 0 {
			return fmt.Errorf("gpu: shared-memory configuration %d is %d", i, s)
		}
		if i > 0 && s <= c.SharedMemConfigs[i-1] {
			return fmt.Errorf("gpu: shared-memory configurations must be increasing")
		}
	}
	return nil
}

// RegFileBytes returns the register-file size per SM in bytes.
func (c *Config) RegFileBytes() int { return c.RegsPerSM * c.RegBytes }

// MaxSharedMemPerSM returns the largest shared-memory configuration.
func (c *Config) MaxSharedMemPerSM() int {
	return c.SharedMemConfigs[len(c.SharedMemConfigs)-1]
}

// SharedMemConfigFor returns the shared-memory configuration the SM driver
// selects for a kernel: the first (smallest) configuration that satisfies
// the kernel's per-thread-block shared-memory requirement (Table 2
// footnote). It fails if even the largest configuration is too small.
func (c *Config) SharedMemConfigFor(smemPerTB int) (int, error) {
	for _, s := range c.SharedMemConfigs {
		if smemPerTB <= s {
			return s, nil
		}
	}
	return 0, fmt.Errorf("gpu: kernel needs %d bytes of shared memory, max configuration is %d",
		smemPerTB, c.MaxSharedMemPerSM())
}

// Occupancy returns the number of thread blocks of kernel k that can run
// concurrently on one SM: the minimum over the thread-block slot limit, the
// register-file limit, the shared-memory limit (under the selected
// configuration) and the thread limit — static hardware partitioning, §2.3.
// It reproduces the "TBs/SM" column of Table 1.
func (c *Config) Occupancy(k *trace.KernelSpec) (int, error) {
	if err := k.Validate(); err != nil {
		return 0, err
	}
	occ := c.MaxTBsPerSM
	if k.RegsPerTB > 0 {
		if byRegs := c.RegsPerSM / k.RegsPerTB; byRegs < occ {
			occ = byRegs
		}
	}
	if k.SharedMemPerTB > 0 {
		cfg, err := c.SharedMemConfigFor(k.SharedMemPerTB)
		if err != nil {
			return 0, err
		}
		if bySmem := cfg / k.SharedMemPerTB; bySmem < occ {
			occ = bySmem
		}
	}
	if byThreads := c.MaxThreadsPerSM / k.ThreadsPerTB; byThreads < occ {
		occ = byThreads
	}
	if occ < 1 {
		return 0, fmt.Errorf("gpu: kernel %s does not fit on an SM (regs=%d smem=%d threads=%d)",
			k.Name, k.RegsPerTB, k.SharedMemPerTB, k.ThreadsPerTB)
	}
	return occ, nil
}

// TBContextBytes returns the architectural context of one thread block: its
// registers plus its shared-memory partition (§3.2). This is the state the
// context-switch mechanism saves and restores per thread block.
func (c *Config) TBContextBytes(k *trace.KernelSpec) int64 {
	return int64(k.RegsPerTB)*int64(c.RegBytes) + int64(k.SharedMemPerTB)
}

// SMContextBytes returns the context of an SM with residentTBs resident
// thread blocks of kernel k.
func (c *Config) SMContextBytes(k *trace.KernelSpec, residentTBs int) int64 {
	return c.TBContextBytes(k) * int64(residentTBs)
}

// SMBandwidthShare returns one SM's share of the global memory bandwidth
// (bandwidth / NumSMs), in bytes per second. The paper's projected context
// save times (Table 1) assume a preempted SM moves its context at this rate.
func (c *Config) SMBandwidthShare() int64 {
	return c.MemBandwidth / int64(c.NumSMs)
}

// ContextMoveTime returns the time to move bytes of context state between
// an SM and off-chip memory at the SM's bandwidth share.
func (c *Config) ContextMoveTime(bytes int64) sim.Time {
	if bytes <= 0 {
		return 0
	}
	share := c.SMBandwidthShare()
	return sim.Time(float64(bytes) / float64(share) * float64(sim.Second))
}

// SaveTime returns the projected time to save the context of an SM fully
// occupied by kernel k (the "Save Time" column of Table 1).
func (c *Config) SaveTime(k *trace.KernelSpec) (sim.Time, error) {
	occ, err := c.Occupancy(k)
	if err != nil {
		return 0, err
	}
	return c.ContextMoveTime(c.SMContextBytes(k, occ)), nil
}

// ResourceUtilization returns the fraction of an SM's on-chip SRAM (register
// file plus maximum shared memory) used by a full residency of kernel k —
// the "Resour./SM (%)" column of Table 1, as a value in [0, 1].
func (c *Config) ResourceUtilization(k *trace.KernelSpec) (float64, error) {
	occ, err := c.Occupancy(k)
	if err != nil {
		return 0, err
	}
	total := float64(c.RegFileBytes() + c.MaxSharedMemPerSM())
	return float64(c.SMContextBytes(k, occ)) / total, nil
}
