package gpu

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if cfg.NumSMs != 13 {
		t.Errorf("NumSMs = %d, want 13 (K20c)", cfg.NumSMs)
	}
	if cfg.RegFileBytes() != 65536*4 {
		t.Errorf("RegFileBytes = %d", cfg.RegFileBytes())
	}
	if cfg.MaxSharedMemPerSM() != 48*1024 {
		t.Errorf("MaxSharedMemPerSM = %d", cfg.MaxSharedMemPerSM())
	}
	if cfg.SMBandwidthShare() != 16e9 {
		t.Errorf("SMBandwidthShare = %d, want 16 GB/s (208/13)", cfg.SMBandwidthShare())
	}
}

func TestConfigValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero SMs", func(c *Config) { c.NumSMs = 0 }},
		{"zero regs", func(c *Config) { c.RegsPerSM = 0 }},
		{"zero reg bytes", func(c *Config) { c.RegBytes = 0 }},
		{"no smem configs", func(c *Config) { c.SharedMemConfigs = nil }},
		{"unsorted smem configs", func(c *Config) { c.SharedMemConfigs = []int{32 * 1024, 16 * 1024} }},
		{"zero smem config", func(c *Config) { c.SharedMemConfigs = []int{0} }},
		{"zero TB slots", func(c *Config) { c.MaxTBsPerSM = 0 }},
		{"zero threads", func(c *Config) { c.MaxThreadsPerSM = 0 }},
		{"zero bandwidth", func(c *Config) { c.MemBandwidth = 0 }},
		{"zero memory", func(c *Config) { c.MemSize = 0 }},
		{"negative drain", func(c *Config) { c.PipelineDrainLatency = -1 }},
		{"negative setup", func(c *Config) { c.SMSetupLatency = -1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			c.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("%s accepted", c.name)
			}
		})
	}
}

func TestSharedMemConfigSelection(t *testing.T) {
	cfg := DefaultConfig()
	cases := []struct {
		need, want int
	}{
		{0, 16 * 1024},
		{4096, 16 * 1024},
		{16 * 1024, 16 * 1024},
		{16*1024 + 1, 32 * 1024},
		{24576, 32 * 1024},
		{48 * 1024, 48 * 1024},
	}
	for _, c := range cases {
		got, err := cfg.SharedMemConfigFor(c.need)
		if err != nil {
			t.Fatalf("SharedMemConfigFor(%d): %v", c.need, err)
		}
		if got != c.want {
			t.Errorf("SharedMemConfigFor(%d) = %d, want %d", c.need, got, c.want)
		}
	}
	if _, err := cfg.SharedMemConfigFor(48*1024 + 1); err == nil {
		t.Error("oversized shared memory accepted")
	}
}

func kernel(regs, smem, threads int) trace.KernelSpec {
	return trace.KernelSpec{
		Name: "k", NumTBs: 100, TBTime: sim.Microseconds(1),
		RegsPerTB: regs, SharedMemPerTB: smem, ThreadsPerTB: threads,
	}
}

func TestOccupancyLimits(t *testing.T) {
	cfg := DefaultConfig()
	cases := []struct {
		name string
		k    trace.KernelSpec
		want int
	}{
		{"register-limited", kernel(4320, 0, 128), 15},
		{"slot-limited", kernel(100, 0, 64), 16},
		{"thread-limited", kernel(100, 0, 512), 4},
		{"smem-limited (16KB cfg)", kernel(100, 4096, 64), 4},
		{"smem picks 32KB cfg", kernel(100, 24576, 64), 1},
		{"single TB", kernel(41984, 0, 512), 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := cfg.Occupancy(&c.k)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Errorf("Occupancy = %d, want %d", got, c.want)
			}
		})
	}
}

func TestOccupancyRejectsUnfittableKernel(t *testing.T) {
	cfg := DefaultConfig()
	k := kernel(70000, 0, 128) // more registers than the file holds
	if _, err := cfg.Occupancy(&k); err == nil {
		t.Fatal("kernel that cannot fit accepted")
	}
	k2 := kernel(100, 49*1024, 128) // more shared memory than any config
	if _, err := cfg.Occupancy(&k2); err == nil {
		t.Fatal("kernel with oversized shared memory accepted")
	}
}

func TestContextBytesAndSaveTime(t *testing.T) {
	cfg := DefaultConfig()
	k := kernel(4320, 0, 128) // lbm StreamCollide
	if got := cfg.TBContextBytes(&k); got != 4320*4 {
		t.Errorf("TBContextBytes = %d, want %d", got, 4320*4)
	}
	if got := cfg.SMContextBytes(&k, 15); got != 4320*4*15 {
		t.Errorf("SMContextBytes = %d", got)
	}
	save, err := cfg.SaveTime(&k)
	if err != nil {
		t.Fatal(err)
	}
	// 259200 bytes at 16 GB/s = 16.2 us (Table 1).
	if us := save.Microseconds(); us < 16.19 || us > 16.21 {
		t.Errorf("SaveTime = %v us, want 16.20", us)
	}
}

func TestContextMoveTimeZero(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.ContextMoveTime(0) != 0 {
		t.Error("moving zero bytes takes time")
	}
	if cfg.ContextMoveTime(-5) != 0 {
		t.Error("moving negative bytes takes time")
	}
}

func TestResourceUtilization(t *testing.T) {
	cfg := DefaultConfig()
	k := kernel(4320, 0, 128)
	util, err := cfg.ResourceUtilization(&k)
	if err != nil {
		t.Fatal(err)
	}
	if pct := util * 100; pct < 83.2 || pct > 83.3 {
		t.Errorf("ResourceUtilization = %.2f%%, want 83.26%% (Table 1)", pct)
	}
}

func TestContextTable(t *testing.T) {
	tbl := NewContextTable(2)
	a, err := tbl.Create("procA", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tbl.Create("procB", 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID {
		t.Fatal("duplicate context ids")
	}
	if _, err := tbl.Create("procC", 0); err == nil {
		t.Fatal("context table over capacity")
	}
	if tbl.Lookup(a.ID) != a {
		t.Fatal("Lookup failed")
	}
	if err := tbl.Destroy(a); err != nil {
		t.Fatal(err)
	}
	if tbl.Lookup(a.ID) != nil {
		t.Fatal("destroyed context still present")
	}
	if err := tbl.Destroy(a); err == nil {
		t.Fatal("double destroy succeeded")
	}
	if tbl.Len() != 1 || tbl.capacity != 2 {
		t.Errorf("Len=%d Cap=%d", tbl.Len(), tbl.capacity)
	}
}

// TestContextRecycling pins what a recycled context may and may not carry
// over from its previous owner: the struct is reused, but the id is fresh
// and the name and priority are the new owner's.
func TestContextRecycling(t *testing.T) {
	tbl := NewContextTable(4)
	old, err := tbl.Create("old", 0)
	if err != nil {
		t.Fatal(err)
	}
	oldID := old.ID
	if err := tbl.Destroy(old); err != nil {
		t.Fatal(err)
	}
	tbl.Recycle(old)

	ctx, err := tbl.Create("new", 1)
	if err != nil {
		t.Fatal(err)
	}
	if ctx != old {
		t.Fatal("Create did not reuse the recycled context")
	}
	if ctx.ID <= oldID || ctx.Name != "new" || ctx.Priority != 1 {
		t.Fatalf("recycled context: id %d (old %d), name %q, priority %d",
			ctx.ID, oldID, ctx.Name, ctx.Priority)
	}
}

func TestContextRecycleRejectsMisuse(t *testing.T) {
	tbl := NewContextTable(2)
	live, _ := tbl.Create("live", 0)
	mustPanic(t, "recycling a live context", func() { tbl.Recycle(live) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestContextTableResetRestartsIDs: Reset recycles every live context and
// restarts the id counter as on a fresh table.
func TestContextTableResetRestartsIDs(t *testing.T) {
	tab := NewContextTable(4)
	var live []*Context
	for i := 0; i < 3; i++ {
		c, err := tab.Create("p", i)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, c)
	}
	tab.Reset(2)
	if tab.Len() != 0 || tab.capacity != 2 {
		t.Fatalf("reset table: %d live, capacity %d; want 0, 2", tab.Len(), tab.capacity)
	}
	for i := 0; i < 2; i++ {
		c, err := tab.Create("q", 0)
		if err != nil {
			t.Fatal(err)
		}
		if c.ID != i {
			t.Errorf("context %d after reset got id %d", i, c.ID)
		}
		// The free list is a stack of the structs in id order.
		if c != live[len(live)-1-i] {
			t.Errorf("context %d: reset did not recycle the structs in id order", i)
		}
	}
	if _, err := tab.Create("r", 0); err == nil {
		t.Error("reset capacity not enforced")
	}
}
