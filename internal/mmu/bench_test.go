package mmu

import "testing"

// BenchmarkSaveAreaCycle measures one kernel's context-save area on the page
// table: AllocRegion maps a 52-page region (lbm's save area in perfbench's
// fleet-jsq workload) and Unmap removes it. Every 16 cycles the table is
// Reset, as a recycled context's table is, so the regions walk through one
// level-2 table and about half of them straddle a 64-page presence word.
func BenchmarkSaveAreaCycle(b *testing.B) {
	const pages = 52
	pt := NewPageTable(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%16 == 0 {
			pt.Reset(1)
		}
		va, err := pt.AllocRegion(0x1000000, pages*PageSize)
		if err != nil {
			b.Fatal(err)
		}
		if err := pt.Unmap(va, pages); err != nil {
			b.Fatal(err)
		}
	}
}
