package mmu

import (
	"testing"

	"repro/internal/gmem"
)

func TestMapTranslate(t *testing.T) {
	pt := NewPageTable(1)
	if err := pt.Map(PageSize, 0x100000, 4); err != nil {
		t.Fatal(err)
	}
	pa, err := pt.Translate(PageSize + 123)
	if err != nil {
		t.Fatal(err)
	}
	if pa != 0x100000+123 {
		t.Fatalf("Translate = %#x, want %#x", uint64(pa), 0x100000+123)
	}
	// Third page.
	pa, err = pt.Translate(3*PageSize + 7)
	if err != nil {
		t.Fatal(err)
	}
	if pa != 0x100000+2*PageSize+7 {
		t.Fatalf("Translate third page = %#x", uint64(pa))
	}
}

func TestTranslateFaults(t *testing.T) {
	pt := NewPageTable(1)
	if _, err := pt.Translate(0x5000000); err == nil {
		t.Fatal("translation of unmapped address succeeded")
	}
}

func TestMapRejectsUnaligned(t *testing.T) {
	pt := NewPageTable(1)
	if err := pt.Map(123, 0, 1); err == nil {
		t.Fatal("unaligned Map succeeded")
	}
}

func TestDoubleMapRejected(t *testing.T) {
	pt := NewPageTable(1)
	if err := pt.Map(PageSize, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(PageSize, PageSize, 1); err == nil {
		t.Fatal("double map succeeded")
	}
}

func TestUnmap(t *testing.T) {
	pt := NewPageTable(1)
	pt.Map(PageSize, 0, 2)
	if err := pt.Unmap(PageSize, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Translate(PageSize); err == nil {
		t.Fatal("translation after unmap succeeded")
	}
	if pt.Mapped() != 0 {
		t.Errorf("Mapped = %d after unmap", pt.Mapped())
	}
	if err := pt.Unmap(PageSize, 1); err == nil {
		t.Fatal("double unmap succeeded")
	}
}

func TestAllocRegion(t *testing.T) {
	pt := NewPageTable(3)
	va1, err := pt.AllocRegion(0x200000, 3*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	va2, err := pt.AllocRegion(0x800000, 100) // sub-page rounds up
	if err != nil {
		t.Fatal(err)
	}
	if va2 < va1+3*PageSize {
		t.Fatalf("regions overlap: %#x then %#x", uint64(va1), uint64(va2))
	}
	pa, err := pt.Translate(va2 + 50)
	if err != nil {
		t.Fatal(err)
	}
	if pa != 0x800000+50 {
		t.Fatalf("Translate region 2 = %#x", uint64(pa))
	}
}

func TestPageZeroUnmapped(t *testing.T) {
	pt := NewPageTable(0)
	va, err := pt.AllocRegion(0x1000, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if va == 0 {
		t.Fatal("AllocRegion handed out page zero")
	}
	if _, err := pt.Translate(0); err == nil {
		t.Fatal("null translation succeeded")
	}
}

func TestTLBHitMiss(t *testing.T) {
	pt := NewPageTable(1)
	pt.Map(PageSize, 0x100000, 2)
	tlb := NewTLB(8)
	if _, err := tlb.Lookup(pt, PageSize+5); err != nil {
		t.Fatal(err)
	}
	if tlb.Misses != 1 || tlb.Hits != 0 {
		t.Fatalf("after first lookup: hits=%d misses=%d", tlb.Hits, tlb.Misses)
	}
	if _, err := tlb.Lookup(pt, PageSize+500); err != nil {
		t.Fatal(err)
	}
	if tlb.Hits != 1 {
		t.Fatalf("same-page lookup did not hit (hits=%d)", tlb.Hits)
	}
	pa, err := tlb.Lookup(pt, 2*PageSize+9)
	if err != nil {
		t.Fatal(err)
	}
	if pa != 0x100000+PageSize+9 {
		t.Fatalf("TLB translation = %#x", uint64(pa))
	}
}

func TestTLBFaultCounting(t *testing.T) {
	pt := NewPageTable(1)
	tlb := NewTLB(4)
	if _, err := tlb.Lookup(pt, 0x7000000); err == nil {
		t.Fatal("fault not reported")
	}
	if tlb.Faults != 1 {
		t.Fatalf("Faults = %d", tlb.Faults)
	}
}

func TestTLBEvictionLRU(t *testing.T) {
	pt := NewPageTable(1)
	pt.Map(PageSize, 0, 10)
	tlb := NewTLB(2)
	mustLookup := func(va VAddr) {
		if _, err := tlb.Lookup(pt, va); err != nil {
			t.Fatal(err)
		}
	}
	mustLookup(1 * PageSize) // miss, cache A
	mustLookup(2 * PageSize) // miss, cache B
	mustLookup(1 * PageSize) // hit A (A more recent than B)
	mustLookup(3 * PageSize) // miss, evicts B
	misses := tlb.Misses
	mustLookup(1 * PageSize) // should still hit
	if tlb.Misses != misses {
		t.Fatal("LRU evicted the recently used entry")
	}
	mustLookup(2 * PageSize) // B was evicted: miss
	if tlb.Misses != misses+1 {
		t.Fatal("expected miss on evicted entry")
	}
	if len(tlb.entries) > 2 {
		t.Fatalf("TLB over capacity: %d", len(tlb.entries))
	}
}

func TestTLBIsolationBetweenASIDs(t *testing.T) {
	ptA := NewPageTable(1)
	ptB := NewPageTable(2)
	ptA.Map(PageSize, 0x1000000, 1)
	ptB.Map(PageSize, 0x2000000, 1)
	tlb := NewTLB(8)
	paA, err := tlb.Lookup(ptA, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	paB, err := tlb.Lookup(ptB, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if paA == paB {
		t.Fatal("TLB returned the same translation for different address spaces")
	}
	if paA != 0x1000000 || paB != 0x2000000 {
		t.Fatalf("translations wrong: %#x %#x", uint64(paA), uint64(paB))
	}
}

func TestTLBFlush(t *testing.T) {
	pt := NewPageTable(1)
	pt.Map(PageSize, 0, 4)
	tlb := NewTLB(8)
	for i := 1; i <= 4; i++ {
		tlb.Lookup(pt, VAddr(i)*PageSize)
	}
	tlb.Flush()
	if len(tlb.entries) != 0 {
		t.Fatalf("Flush left %d entries", len(tlb.entries))
	}
}

func TestNewTLBPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTLB(0) did not panic")
		}
	}()
	NewTLB(0)
}

func TestPageTableIsolation(t *testing.T) {
	// Two contexts map the same virtual address to different physical
	// frames; translations must not leak across page tables.
	ptA := NewPageTable(1)
	ptB := NewPageTable(2)
	var frameA, frameB gmem.PAddr = 0xA0000, 0xB0000
	ptA.Map(PageSize, frameA, 1)
	ptB.Map(PageSize, frameB, 1)
	pa, _ := ptA.Translate(PageSize)
	pb, _ := ptB.Translate(PageSize)
	if pa != frameA || pb != frameB {
		t.Fatalf("isolation violated: %#x %#x", uint64(pa), uint64(pb))
	}
}

// TestPageTableResetReusesLevel2 pins recycling: an emptied table keeps its
// level-2 tables, so a Reset table maps its next owner's region without
// allocating, and Reset refuses a table that still maps pages.
func TestPageTableResetReusesLevel2(t *testing.T) {
	pt := NewPageTable(1)
	va, err := pt.AllocRegion(0x100000, 2*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Reset of a table with mapped pages did not panic")
			}
		}()
		pt.Reset(2)
	}()
	if err := pt.Unmap(va, 2); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() {
		pt.Reset(2)
		v, err := pt.AllocRegion(0x300000, 2*PageSize)
		if err != nil || v != va {
			t.Fatalf("AllocRegion after Reset: va %#x, err %v", uint64(v), err)
		}
		if err := pt.Unmap(v, 2); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Reset+AllocRegion+Unmap allocates %v times, want 0", a)
	}
	if pt.ASID != 2 || pt.Mapped() != 0 {
		t.Errorf("after reuse: asid %d, %d pages mapped", pt.ASID, pt.Mapped())
	}
}

// TestTLBMapIsLazy pins that a TLB costs no map until a lookup fills an
// entry, that the maintenance calls work before then, and that a faulting
// lookup counts exactly as it does on a filled TLB.
func TestTLBMapIsLazy(t *testing.T) {
	tlb := NewTLB(4)
	tlb.Flush()
	if len(tlb.entries) != 0 || tlb.entries != nil {
		t.Fatalf("fresh TLB: len %d, map allocated %v", len(tlb.entries), tlb.entries != nil)
	}
	pt := NewPageTable(1)
	if _, err := tlb.Lookup(pt, PageSize); err == nil {
		t.Fatal("lookup of an unmapped VA succeeded")
	}
	if tlb.Misses != 1 || tlb.Faults != 1 || tlb.Hits != 0 || len(tlb.entries) != 0 {
		t.Fatalf("after fault: hits %d misses %d faults %d len %d", tlb.Hits, tlb.Misses, tlb.Faults, len(tlb.entries))
	}
	pt.Map(PageSize, 0x10000, 1) //nolint:errcheck // fresh table
	for i := 0; i < 2; i++ {
		if _, err := tlb.Lookup(pt, PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if tlb.Misses != 2 || tlb.Hits != 1 || len(tlb.entries) != 1 {
		t.Fatalf("after fill: hits %d misses %d len %d", tlb.Hits, tlb.Misses, len(tlb.entries))
	}
}

// TestTLBResetMatchesNew: a reset TLB holds no translation of the old
// address spaces and counts from zero, like a new one.
func TestTLBResetMatchesNew(t *testing.T) {
	pt := NewPageTable(0)
	va, err := pt.AllocRegion(gmem.PAddr(0x100000), 2*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	tlb := NewTLB(4)
	for i := 0; i < 3; i++ {
		if _, err := tlb.Lookup(pt, va); err != nil {
			t.Fatal(err)
		}
	}
	tlb.Reset(8)
	if len(tlb.entries) != 0 || tlb.Hits != 0 || tlb.Misses != 0 || tlb.Faults != 0 {
		t.Fatalf("reset TLB: %d entries, %d/%d/%d hits/misses/faults", len(tlb.entries), tlb.Hits, tlb.Misses, tlb.Faults)
	}
	if _, err := tlb.Lookup(pt, va); err != nil || tlb.Misses != 1 {
		t.Errorf("first lookup after reset: err %v, %d misses; want a miss", err, tlb.Misses)
	}
}

// TestPageTableClear: Clear drops every mapping so the table can be Reset
// for another address space.
func TestPageTableClear(t *testing.T) {
	pt := NewPageTable(1)
	if _, err := pt.AllocRegion(gmem.PAddr(0), 5*PageSize); err != nil {
		t.Fatal(err)
	}
	pt.Clear()
	if pt.Mapped() != 0 {
		t.Fatalf("%d pages mapped after Clear", pt.Mapped())
	}
	pt.Reset(2)
	if _, err := pt.Translate(PageSize); err == nil {
		t.Error("translation survived Clear")
	}
	if _, err := pt.AllocRegion(gmem.PAddr(0), PageSize); err != nil {
		t.Errorf("remapping after Clear: %v", err)
	}
}
