// Package mmu models per-context GPU address translation: two-level page
// tables walked from a base page-table register, and per-SM TLBs.
//
// The paper's multiprogramming extensions (§3.1) give every SM a GPU context
// id register and a base page table register so that SMs running kernels
// from different processes translate through different page tables. The
// simulator uses the MMU on the context save/restore path (the trap routine
// writes the saved context through the virtual address space of its process)
// and to enforce isolation between contexts.
package mmu

import (
	"fmt"
	"math/bits"

	"repro/internal/gmem"
)

// VAddr is a GPU virtual address.
type VAddr uint64

// PageSize is the GPU page size. GPUs use large pages; 64 KiB matches
// contemporary NVIDIA MMUs.
const PageSize = 64 * 1024

const (
	level1Bits = 10
	level2Bits = 10
	pageShift  = 16 // log2(PageSize)
)

// PageTable is a two-level per-context page table. Its "root" stands in for
// the physical location named by the base page table register of §3.1.
// Level-2 tables are dense arrays with a presence bitmap — like the real
// structure, and unlike a hash map it makes the per-activation save-area
// map/unmap traffic allocation-free. Map and Unmap work one run of pages per
// level-2 table at a time: they test and then set or clear the run's
// presence bits a 64-bit word at a time, and Map writes the run's entries in
// one loop. An emptied level-2 table stays attached, so a recycled page
// table (Reset) maps its next owner's save areas into the tables its
// previous owner grew.
type PageTable struct {
	ASID   int // address-space identifier (the GPU context id)
	root   []*ptLevel2
	next   VAddr // simple growing virtual address space
	mapped int   // number of mapped pages
}

const l2Entries = 1 << level2Bits

type ptLevel2 struct {
	entries [l2Entries]gmem.PAddr
	present [l2Entries / 64]uint64
}

func (t *ptLevel2) has(l2 uint64) bool { return t.present[l2>>6]&(1<<(l2&63)) != 0 }

// wordMask returns the bits of presence word w that cover entries [a, b),
// which must overlap the word.
func wordMask(w, a, b uint64) uint64 {
	lo, hi := max(w<<6, a), min(w<<6+64, b)
	return ^uint64(0) >> (64 - (hi - lo)) << (lo & 63)
}

// first returns the first entry in [a, b) whose presence is present, or -1
// if there is none.
func (t *ptLevel2) first(a, b uint64, present bool) int {
	var flip uint64 // inverts the words when looking for an absent entry
	if !present {
		flip = ^uint64(0)
	}
	for w := a >> 6; w <= (b-1)>>6; w++ {
		if m := (t.present[w] ^ flip) & wordMask(w, a, b); m != 0 {
			return int(w<<6) + bits.TrailingZeros64(m)
		}
	}
	return -1
}

// setRange marks entries [a, b) present.
func (t *ptLevel2) setRange(a, b uint64) {
	for w := a >> 6; w <= (b-1)>>6; w++ {
		t.present[w] |= wordMask(w, a, b)
	}
}

// clearRange marks entries [a, b) absent.
func (t *ptLevel2) clearRange(a, b uint64) {
	for w := a >> 6; w <= (b-1)>>6; w++ {
		t.present[w] &^= wordMask(w, a, b)
	}
}

// run splits the pages [vpn, end) at the first level-2 boundary: it returns
// the level-1 index and the level-2 entries [a, b) of the first run.
func run(vpn, end uint64) (l1, a, b uint64) {
	l1, a = vpn>>level2Bits, vpn&(l2Entries-1)
	return l1, a, a + min(end-vpn, l2Entries-a)
}

// pageVA returns the virtual address of entry l2 of level-2 table l1.
func pageVA(l1, l2 uint64) uint64 { return (l1<<level2Bits | l2) << pageShift }

// NewPageTable returns an empty page table for the given address space.
func NewPageTable(asid int) *PageTable {
	return &PageTable{
		ASID: asid,
		next: PageSize, // keep page 0 unmapped to catch null derefs
	}
}

// Reset readies an empty page table for a new address space: the ASID and
// the growing virtual address space start over, and the level-2 tables are
// kept for reuse. Resetting a table that still maps pages is a caller bug
// and panics, since the new owner would inherit the old owner's translations.
func (pt *PageTable) Reset(asid int) {
	if pt.mapped != 0 {
		panic(fmt.Sprintf("mmu: resetting asid %d with %d mapped pages", pt.ASID, pt.mapped))
	}
	pt.ASID = asid
	pt.next = PageSize
}

// Clear unmaps every page, keeping the level-2 tables for reuse. A machine
// reset uses it on the page tables of contexts that die mid-flight, whose
// save areas are still mapped; afterwards the table can be Reset for a new
// address space.
func (pt *PageTable) Clear() {
	if pt.mapped == 0 {
		return
	}
	for _, tbl := range pt.root {
		if tbl != nil {
			tbl.present = [l2Entries / 64]uint64{}
		}
	}
	pt.mapped = 0
}

// level2 returns the level-2 table for an L1 index, growing the root and
// creating the table as needed.
func (pt *PageTable) level2(l1 uint64) *ptLevel2 {
	for uint64(len(pt.root)) <= l1 {
		pt.root = append(pt.root, nil)
	}
	tbl := pt.root[l1]
	if tbl == nil {
		tbl = &ptLevel2{}
		pt.root[l1] = tbl
	}
	return tbl
}

// lookup returns the level-2 table for an L1 index, or nil.
func (pt *PageTable) lookup(l1 uint64) *ptLevel2 {
	if l1 >= uint64(len(pt.root)) {
		return nil
	}
	return pt.root[l1]
}

// Map installs translations for npages pages starting at va -> pa. It is
// all-or-nothing: the whole run is checked before any page is mapped, so a
// run that overlaps a mapped page fails and changes nothing.
func (pt *PageTable) Map(va VAddr, pa gmem.PAddr, npages int) error {
	if va%PageSize != 0 {
		return fmt.Errorf("mmu: unaligned virtual address %#x", uint64(va))
	}
	if npages <= 0 {
		return nil
	}
	vpn := uint64(va) >> pageShift
	end := vpn + uint64(npages)
	for p := vpn; p < end; {
		l1, a, b := run(p, end)
		if tbl := pt.lookup(l1); tbl != nil {
			if i := tbl.first(a, b, true); i >= 0 {
				return fmt.Errorf("mmu: double map of va %#x in asid %d", pageVA(l1, uint64(i)), pt.ASID)
			}
		}
		p += b - a
	}
	for p := vpn; p < end; {
		l1, a, b := run(p, end)
		tbl := pt.level2(l1)
		tbl.setRange(a, b)
		frame := pa + gmem.PAddr((p-vpn)<<pageShift)
		e := tbl.entries[a:b]
		for i := range e {
			e[i] = frame + gmem.PAddr(i)<<pageShift
		}
		p += b - a
	}
	pt.mapped += npages
	return nil
}

// Unmap removes translations for npages pages starting at va. Like Map it
// is all-or-nothing: if any page of the run is unmapped, it fails and
// changes nothing.
func (pt *PageTable) Unmap(va VAddr, npages int) error {
	if npages <= 0 {
		return nil
	}
	vpn := uint64(va) >> pageShift
	end := vpn + uint64(npages)
	for p := vpn; p < end; {
		l1, a, b := run(p, end)
		i := int(a)
		if tbl := pt.lookup(l1); tbl != nil {
			i = tbl.first(a, b, false)
		}
		if i >= 0 {
			return fmt.Errorf("mmu: unmap of unmapped va %#x in asid %d", pageVA(l1, uint64(i)), pt.ASID)
		}
		p += b - a
	}
	for p := vpn; p < end; {
		l1, a, b := run(p, end)
		pt.root[l1].clearRange(a, b)
		p += b - a
	}
	pt.mapped -= npages
	return nil
}

// Translate walks the page table (two levels) and returns the physical
// address for va, or an error on a page fault.
func (pt *PageTable) Translate(va VAddr) (gmem.PAddr, error) {
	l1 := uint64(va) >> (pageShift + level2Bits)
	l2 := (uint64(va) >> pageShift) & (l2Entries - 1)
	tbl := pt.lookup(l1)
	if tbl == nil {
		return 0, fmt.Errorf("mmu: page fault at va %#x in asid %d (no L1 entry)", uint64(va), pt.ASID)
	}
	if !tbl.has(l2) {
		return 0, fmt.Errorf("mmu: page fault at va %#x in asid %d (no L2 entry)", uint64(va), pt.ASID)
	}
	return tbl.entries[l2] + gmem.PAddr(uint64(va)&(PageSize-1)), nil
}

// Mapped returns the number of mapped pages. It is O(1): a running count.
func (pt *PageTable) Mapped() int { return pt.mapped }

// AllocRegion reserves a fresh region of virtual address space covering
// size bytes and maps it to pa. It returns the base virtual address.
func (pt *PageTable) AllocRegion(pa gmem.PAddr, size int64) (VAddr, error) {
	npages := int((size + PageSize - 1) / PageSize)
	va := pt.next
	if err := pt.Map(va, pa, npages); err != nil {
		return 0, err
	}
	pt.next += VAddr(npages * PageSize)
	return va, nil
}

// TLB is a per-SM translation lookaside buffer with LRU replacement. A miss
// walks the page table selected by the SM's base page table register (here:
// the PageTable passed to Lookup). The entry map is created by the first
// Lookup that fills an entry: an SM translates only on the context
// save/restore path, which many SMs of a large fleet never take. Flush and
// Len work on the nil map.
type TLB struct {
	capacity int
	entries  map[tlbKey]tlbEntry
	clock    uint64

	Hits   uint64
	Misses uint64
	Faults uint64
}

type tlbKey struct {
	asid int
	vpn  uint64
}

type tlbEntry struct {
	pa   gmem.PAddr
	used uint64
}

// NewTLB returns a TLB with the given number of entries.
func NewTLB(capacity int) *TLB {
	t := &TLB{}
	t.Reset(capacity)
	return t
}

// Reset returns the TLB to the state NewTLB(capacity) produces: no entries,
// the LRU clock and the counters at zero. The entry map is kept (cleared).
func (t *TLB) Reset(capacity int) {
	if capacity <= 0 {
		panic("mmu: non-positive TLB capacity")
	}
	t.capacity = capacity
	clear(t.entries)
	t.clock = 0
	t.Hits, t.Misses, t.Faults = 0, 0, 0
}

// Lookup translates va through the TLB, walking pt on a miss.
func (t *TLB) Lookup(pt *PageTable, va VAddr) (gmem.PAddr, error) {
	t.clock++
	key := tlbKey{asid: pt.ASID, vpn: uint64(va) >> pageShift}
	if e, ok := t.entries[key]; ok {
		t.Hits++
		e.used = t.clock
		t.entries[key] = e
		return e.pa + gmem.PAddr(uint64(va)&(PageSize-1)), nil
	}
	t.Misses++
	pa, err := pt.Translate(va)
	if err != nil {
		t.Faults++
		return 0, err
	}
	base := pa - gmem.PAddr(uint64(va)&(PageSize-1))
	if t.entries == nil {
		t.entries = make(map[tlbKey]tlbEntry, t.capacity)
	}
	if len(t.entries) >= t.capacity {
		t.evict()
	}
	t.entries[key] = tlbEntry{pa: base, used: t.clock}
	return pa, nil
}

// Flush empties the TLB. The map is cleared, not reallocated: installing a
// different context on an SM is frequent in multiprogrammed runs.
func (t *TLB) Flush() {
	clear(t.entries)
}

// Len returns the number of resident entries.
func (t *TLB) Len() int { return len(t.entries) }

func (t *TLB) evict() {
	var victim tlbKey
	var oldest uint64 = ^uint64(0)
	for k, e := range t.entries {
		if e.used < oldest {
			oldest = e.used
			victim = k
		}
	}
	delete(t.entries, victim)
}
