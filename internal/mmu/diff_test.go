package mmu

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/gmem"
)

// refTable is the reference page table: one map entry per mapped page.
type refTable map[VAddr]gmem.PAddr

func (r refTable) mapRun(va VAddr, pa gmem.PAddr, n int) bool {
	for i := 0; i < n; i++ {
		if _, ok := r[va+VAddr(i*PageSize)]; ok {
			return false
		}
	}
	for i := 0; i < n; i++ {
		r[va+VAddr(i*PageSize)] = pa + gmem.PAddr(i*PageSize)
	}
	return true
}

func (r refTable) unmapRun(va VAddr, n int) bool {
	for i := 0; i < n; i++ {
		if _, ok := r[va+VAddr(i*PageSize)]; !ok {
			return false
		}
	}
	for i := 0; i < n; i++ {
		delete(r, va+VAddr(i*PageSize))
	}
	return true
}

// check compares pt with the reference over the pages [0, pages): the
// mapped count, every presence bit and every present entry.
func (r refTable) check(pt *PageTable, pages int) error {
	if pt.Mapped() != len(r) {
		return fmt.Errorf("Mapped %d, reference %d", pt.Mapped(), len(r))
	}
	for p := 0; p < pages; p++ {
		va := VAddr(p) << pageShift
		want, ok := r[va]
		tbl := pt.lookup(uint64(p) >> level2Bits)
		l2 := uint64(p) & (l2Entries - 1)
		if got := tbl != nil && tbl.has(l2); got != ok {
			return fmt.Errorf("va %#x: present %v, reference %v", uint64(va), got, ok)
		}
		if ok && tbl.entries[l2] != want {
			return fmt.Errorf("va %#x: entry %#x, reference %#x", uint64(va), uint64(tbl.entries[l2]), uint64(want))
		}
	}
	return nil
}

// TestPageTableMatchesReference drives a page table and a map reference with
// the same seeded random Map, Unmap and Clear calls. Runs start at and near
// the 64-page presence-word and 1024-page level-2 boundaries and are long
// enough to cross both.
func TestPageTableMatchesReference(t *testing.T) {
	const pages = 3 * l2Entries
	for seed := uint64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewPCG(seed, 0x2545f4914f6cdd1d))
		pt := NewPageTable(int(seed))
		ref := refTable{}
		type region struct {
			va VAddr
			n  int
		}
		var regions []region
		start := func() int {
			var p int
			switch rnd.IntN(3) {
			case 0:
				p = 64*rnd.IntN(pages/64) + rnd.IntN(7) - 3
			case 1:
				p = l2Entries*rnd.IntN(pages/l2Entries) + rnd.IntN(7) - 3
			default:
				p = rnd.IntN(pages)
			}
			return max(p, 0)
		}
		length := func(p int) int {
			n := 1 + rnd.IntN(70)
			if rnd.IntN(4) == 0 {
				n = 1 + rnd.IntN(1100)
			}
			return min(n, pages-p)
		}
		for step := 0; step < 300; step++ {
			var what string
			switch op := rnd.IntN(20); {
			case op < 10:
				p := start()
				n := length(p)
				va, pa := VAddr(p)<<pageShift, gmem.PAddr(rnd.IntN(1<<20))<<pageShift
				what = fmt.Sprintf("Map(%#x, %#x, %d)", uint64(va), uint64(pa), n)
				err := pt.Map(va, pa, n)
				if ok := ref.mapRun(va, pa, n); (err == nil) != ok {
					t.Fatalf("seed %d step %d: %s = %v, reference ok=%v", seed, step, what, err, ok)
				} else if ok {
					regions = append(regions, region{va, n})
				}
			case op < 19:
				// A mapped region, a part of one, or an arbitrary run.
				var va VAddr
				var n int
				if len(regions) > 0 && rnd.IntN(3) != 0 {
					k := rnd.IntN(len(regions))
					va, n = regions[k].va, regions[k].n
					if rnd.IntN(2) == 0 {
						skip := rnd.IntN(n)
						va, n = va+VAddr(skip)<<pageShift, 1+rnd.IntN(n-skip)
					}
					regions = append(regions[:k], regions[k+1:]...)
				} else {
					p := start()
					va, n = VAddr(p)<<pageShift, length(p)
				}
				what = fmt.Sprintf("Unmap(%#x, %d)", uint64(va), n)
				err := pt.Unmap(va, n)
				if ok := ref.unmapRun(va, n); (err == nil) != ok {
					t.Fatalf("seed %d step %d: %s = %v, reference ok=%v", seed, step, what, err, ok)
				}
			default:
				what = "Clear()"
				pt.Clear()
				ref = refTable{}
				regions = regions[:0]
			}
			if err := ref.check(pt, pages); err != nil {
				t.Fatalf("seed %d step %d: after %s: %v", seed, step, what, err)
			}
		}
		for va, want := range ref {
			if got, err := pt.Translate(va + 17); err != nil || got != want+17 {
				t.Fatalf("seed %d: Translate(%#x) = %#x, %v; want %#x", seed, uint64(va+17), uint64(got), err, uint64(want+17))
			}
		}
	}
}

// TestFailedMapUnmapChangesNothing: a Map that overlaps a mapped page, or an
// Unmap that covers an unmapped one, fails without touching any page of its
// run, even when the conflict lies past a presence-word or level-2 boundary.
func TestFailedMapUnmapChangesNothing(t *testing.T) {
	pt := NewPageTable(1)
	// Pages 1000..1099 straddle word 15/16 and the level-2 boundary at 1024.
	const base = VAddr(1000) << pageShift
	if err := pt.Map(base, 0x4000000, 100); err != nil {
		t.Fatal(err)
	}
	unchanged := func(op string) {
		t.Helper()
		if pt.Mapped() != 100 {
			t.Errorf("after failed %s: Mapped %d, want 100", op, pt.Mapped())
		}
		for p := 900; p < 1200; p++ {
			va := VAddr(p) << pageShift
			pa, err := pt.Translate(va)
			if mapped := p >= 1000 && p < 1100; mapped != (err == nil) {
				t.Fatalf("after failed %s: page %d mapped %v, want %v", op, p, err == nil, mapped)
			} else if mapped && pa != 0x4000000+gmem.PAddr(p-1000)<<pageShift {
				t.Fatalf("after failed %s: page %d at %#x", op, p, uint64(pa))
			}
		}
	}
	// Runs that end on the mapped region's first or last page.
	if err := pt.Map(VAddr(901)<<pageShift, 0, 100); err == nil {
		t.Fatal("Map overlapping the first mapped page succeeded")
	}
	unchanged("Map before")
	if err := pt.Map(VAddr(1099)<<pageShift, 0, 50); err == nil {
		t.Fatal("Map overlapping the last mapped page succeeded")
	}
	unchanged("Map after")
	// Runs that cover the whole region and one unmapped page beyond it.
	if err := pt.Unmap(base, 101); err == nil {
		t.Fatal("Unmap past the mapped region succeeded")
	}
	unchanged("Unmap past the end")
	if err := pt.Unmap(base-PageSize, 101); err == nil {
		t.Fatal("Unmap before the mapped region succeeded")
	}
	unchanged("Unmap before the start")
	if err := pt.Unmap(VAddr(3000)<<pageShift, 5); err == nil {
		t.Fatal("Unmap beyond every level-2 table succeeded")
	}
	unchanged("Unmap of a missing table")
}
