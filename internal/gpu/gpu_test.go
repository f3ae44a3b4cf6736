package gpu

import (
	"testing"

	"repro/internal/mmu"
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
		{"zero TLB", func(c *Config) { c.TLBEntriesPerSM = 0 }},
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
	if a.PageTable == nil || a.PageTable.ASID != a.ID {
		t.Fatal("context page table not wired to ASID")
	}
	if _, err := tbl.Create("procC", 0); err == nil {
		t.Fatal("context table over capacity")
	}
	if tbl.Lookup(a.ID) != a {
		t.Fatal("Lookup failed")
	}
	if err := tbl.Destroy(a.ID); err != nil {
		t.Fatal(err)
	}
	if tbl.Lookup(a.ID) != nil {
		t.Fatal("destroyed context still present")
	}
	if err := tbl.Destroy(a.ID); err == nil {
		t.Fatal("double destroy succeeded")
	}
	if tbl.Len() != 1 || tbl.capacity != 2 {
		t.Errorf("Len=%d Cap=%d", tbl.Len(), tbl.capacity)
	}
}

// TestContextRecycling pins what a recycled context may and may not carry
// over from its previous owner: the struct and its page table's level-2
// tables are reused, but the id is fresh, no translation survives, and a TLB
// entry filled under the old id never hits for the new one.
func TestContextRecycling(t *testing.T) {
	tbl := NewContextTable(4)
	old, err := tbl.Create("old", 0)
	if err != nil {
		t.Fatal(err)
	}
	oldID := old.ID
	va, err := old.PageTable.AllocRegion(0x400000, 3*mmu.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	tlb := mmu.NewTLB(8)
	if _, err := tlb.Lookup(old.PageTable, va); err != nil {
		t.Fatal(err)
	}
	if err := old.PageTable.Unmap(va, 3); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Destroy(oldID); err != nil {
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
	if ctx.ID <= oldID || ctx.PageTable.ASID != ctx.ID || ctx.Name != "new" || ctx.Priority != 1 {
		t.Fatalf("recycled context: id %d (old %d), asid %d, name %q, priority %d",
			ctx.ID, oldID, ctx.PageTable.ASID, ctx.Name, ctx.Priority)
	}
	if n := ctx.PageTable.Mapped(); n != 0 {
		t.Fatalf("recycled page table maps %d pages", n)
	}
	if _, err := ctx.PageTable.Translate(va); err == nil {
		t.Fatal("recycled page table translates the previous owner's save area")
	}
	hits, faults := tlb.Hits, tlb.Faults
	if _, err := tlb.Lookup(ctx.PageTable, va); err == nil || tlb.Hits != hits || tlb.Faults != faults+1 {
		t.Fatalf("TLB lookup of the previous owner's VA: err %v, hits %d->%d, faults %d->%d",
			err, hits, tlb.Hits, faults, tlb.Faults)
	}
	// The new owner's first region lands at the same VA; the TLB must walk
	// the new mapping rather than return the retired ASID's entry.
	va2, err := ctx.PageTable.AllocRegion(0x900000, mmu.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if va2 != va {
		t.Fatalf("recycled address space starts at %#x, want %#x", uint64(va2), uint64(va))
	}
	pa, err := tlb.Lookup(ctx.PageTable, va)
	if err != nil || pa != 0x900000 || tlb.Hits != hits {
		t.Fatalf("TLB lookup after remap: pa %#x, err %v, hits %d->%d", uint64(pa), err, hits, tlb.Hits)
	}
}

func TestContextRecycleRejectsMisuse(t *testing.T) {
	tbl := NewContextTable(2)
	live, _ := tbl.Create("live", 0)
	mustPanic(t, "recycling a live context", func() { tbl.Recycle(live) })
	if _, err := live.PageTable.AllocRegion(0, mmu.PageSize); err != nil {
		t.Fatal(err)
	}
	tbl.Destroy(live.ID) //nolint:errcheck // live
	mustPanic(t, "recycling a context with mapped pages", func() { tbl.Recycle(live) })
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

// TestContextTableResetRestartsIDs: Reset recycles every live context, its
// page table cleared, and restarts the id counter as on a fresh table.
func TestContextTableResetRestartsIDs(t *testing.T) {
	tab := NewContextTable(4)
	var live []*Context
	for i := 0; i < 3; i++ {
		c, err := tab.Create("p", i)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.PageTable.AllocRegion(0, 3*mmu.PageSize); err != nil {
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
		if c.PageTable.Mapped() != 0 || c.PageTable.ASID != i {
			t.Errorf("context %d: recycled page table maps %d pages, asid %d", i, c.PageTable.Mapped(), c.PageTable.ASID)
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
