package gmem

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// ownedBy returns the bytes owner holds, read from the live allocations.
func ownedBy(m *Manager, owner int) int64 {
	var n int64
	for _, a := range m.live {
		if a.owner == owner {
			n += a.size
		}
	}
	return n
}

func TestAllocFreeBasic(t *testing.T) {
	m := NewManager(1 << 20)
	a, err := m.Alloc(1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Alloc(2, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("overlapping allocations")
	}
	if m.Used() != 3072 {
		t.Errorf("Used = %d, want 3072", m.Used())
	}
	if ownedBy(m, 1) != 1024 || ownedBy(m, 2) != 2048 {
		t.Errorf("ownership accounting wrong: %d/%d", ownedBy(m, 1), ownedBy(m, 2))
	}
	if err := m.Free(a); err != nil {
		t.Fatal(err)
	}
	if m.Used() != 2048 {
		t.Errorf("Used after free = %d", m.Used())
	}
}

func TestAllocExhaustion(t *testing.T) {
	m := NewManager(4096)
	if _, err := m.Alloc(0, 4096); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Alloc(0, 1); err == nil {
		t.Fatal("allocation beyond capacity succeeded (no demand paging!)")
	}
}

func TestAllocRejectsNonPositive(t *testing.T) {
	m := NewManager(4096)
	if _, err := m.Alloc(0, 0); err == nil {
		t.Fatal("Alloc(0) succeeded")
	}
	if _, err := m.Alloc(0, -5); err == nil {
		t.Fatal("Alloc(-5) succeeded")
	}
}

func TestFreeUnknownAddress(t *testing.T) {
	m := NewManager(4096)
	if err := m.Free(123); err == nil {
		t.Fatal("freeing unallocated address succeeded")
	}
}

func TestFreeCoalesces(t *testing.T) {
	m := NewManager(4096)
	a, _ := m.Alloc(0, 1024)
	b, _ := m.Alloc(0, 1024)
	c, _ := m.Alloc(0, 1024)
	m.Free(a)
	m.Free(c)
	if len(m.free) != 2 { // [a] and [c..end]: c merged with the free tail
		t.Fatalf("free spans = %d, want 2", len(m.free))
	}
	m.Free(b)
	if len(m.free) != 1 {
		t.Fatalf("free list not coalesced: %d spans", len(m.free))
	}
	// The whole arena should be allocatable again.
	if _, err := m.Alloc(0, 4096); err != nil {
		t.Fatalf("arena not whole after coalescing: %v", err)
	}
}

func TestFreeOwner(t *testing.T) {
	m := NewManager(1 << 20)
	for i := 0; i < 5; i++ {
		if _, err := m.Alloc(7, 1024); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Alloc(8, 512); err != nil {
		t.Fatal(err)
	}
	freed := m.FreeOwner(7)
	if freed != 5*1024 {
		t.Fatalf("FreeOwner freed %d, want %d", freed, 5*1024)
	}
	if ownedBy(m, 7) != 0 {
		t.Errorf("owner 7 still owns %d", ownedBy(m, 7))
	}
	if ownedBy(m, 8) != 512 {
		t.Errorf("owner 8 lost memory")
	}
}

func TestReuseAfterFree(t *testing.T) {
	m := NewManager(4096)
	a, _ := m.Alloc(0, 4096)
	m.Free(a)
	b, err := m.Alloc(0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("first-fit should reuse the freed span (got %v, want %v)", b, a)
	}
}

func TestNewManagerPanicsOnZeroSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewManager(0) did not panic")
		}
	}()
	NewManager(0)
}

// Property: context churn does not leak fragments. Alternating Alloc and
// FreeOwner across many owners — allocation sizes and free order drawn from
// the fuzzed input — must always coalesce the arena back to a single span
// once every owner has been destroyed, and the whole arena must be
// allocatable again.
func TestChurnCoalescesToOneSpan(t *testing.T) {
	const arena = 1 << 20
	f := func(sizes []uint16, freeOrder []uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		m := NewManager(arena)
		const owners = 7
		// Interleave allocations across owners so each owner's blocks are
		// scattered through the arena, not contiguous.
		for i, s := range sizes {
			size := int64(s%8192) + 1
			if _, err := m.Alloc(i%owners, size); err != nil {
				break // exhausted: fine, destroy what is live
			}
		}
		// Destroy the owners in fuzzed order; freeing one owner mid-stream
		// punches holes between the surviving owners' blocks.
		destroyed := make(map[int]bool)
		for _, o := range freeOrder {
			destroyed[int(o)%owners] = true
			m.FreeOwner(int(o) % owners)
		}
		for o := 0; o < owners; o++ {
			m.FreeOwner(o)
		}
		if m.Used() != 0 {
			t.Logf("Used = %d after freeing every owner", m.Used())
			return false
		}
		if len(m.free) != 1 {
			t.Logf("free list fragmented: %d spans", len(m.free))
			return false
		}
		// The arena must be whole again.
		if _, err := m.Alloc(0, arena); err != nil {
			t.Logf("arena not allocatable after churn: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A first-fit failure must report the allocator's true used/free bytes —
// the message feeds capacity-planning errors surfaced to users, and a stale
// running counter would misreport exactly when it matters.
func TestAllocFailureReportsAccurateUsage(t *testing.T) {
	m := NewManager(10240)
	a, _ := m.Alloc(1, 4096)
	if _, err := m.Alloc(2, 4096); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(a); err != nil {
		t.Fatal(err)
	}
	// 4096 bytes live, 6144 free but split 4096 + 2048: a 5000-byte request
	// fails on fragmentation, not capacity.
	_, err := m.Alloc(3, 5000)
	if err == nil {
		t.Fatal("fragmented 5000-byte allocation succeeded")
	}
	want := fmt.Sprintf("used %d of %d, %d free", 4096, 10240, 6144)
	if !strings.Contains(err.Error(), want) {
		t.Errorf("failure message %q does not report %q", err, want)
	}
	if m.Used() != 4096 || m.size-m.used != 6144 {
		t.Errorf("used/free = %d/%d, want 4096/6144", m.Used(), m.size-m.used)
	}
}

// Property: any sequence of alloc/free keeps accounting consistent:
// Used() equals the sum of live allocation sizes, and allocations never
// overlap.
func TestAllocatorConsistencyProperty(t *testing.T) {
	type op struct {
		Alloc bool
		Size  uint16
	}
	f := func(ops []op) bool {
		m := NewManager(1 << 18)
		type live struct {
			base PAddr
			size int64
		}
		var lives []live
		var total int64
		for _, o := range ops {
			if o.Alloc || len(lives) == 0 {
				size := int64(o.Size%4096) + 1
				base, err := m.Alloc(0, size)
				if err != nil {
					continue // exhausted is fine
				}
				// check overlap
				for _, l := range lives {
					if base < l.base+PAddr(l.size) && l.base < base+PAddr(size) {
						return false
					}
				}
				lives = append(lives, live{base, size})
				total += size
			} else {
				idx := int(o.Size) % len(lives)
				if err := m.Free(lives[idx].base); err != nil {
					return false
				}
				total -= lives[idx].size
				lives = append(lives[:idx], lives[idx+1:]...)
			}
			if m.Used() != total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestAllocOutOfMemoryIsSentinel: a failed Alloc matches ErrOutOfMemory and
// allocates nothing — admission paths probe for space on every placement.
func TestAllocOutOfMemoryIsSentinel(t *testing.T) {
	m := NewManager(8192)
	if _, err := m.Alloc(1, 8192); err != nil {
		t.Fatal(err)
	}
	_, err := m.Alloc(2, 1)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("Alloc on full memory returned %v, want ErrOutOfMemory", err)
	}
	if a := testing.AllocsPerRun(100, func() { _, err = m.Alloc(3, 4096) }); a != 0 {
		t.Errorf("a failing Alloc allocates %v times, want 0", a)
	}
	if _, err := m.Alloc(4, 0); err == nil || errors.Is(err, ErrOutOfMemory) {
		t.Errorf("zero-byte Alloc returned %v, want a non-OOM error", err)
	}
}

// TestResetMatchesNew: a reset manager forgets every allocation and owner and
// hands out the addresses a fresh one would.
func TestResetMatchesNew(t *testing.T) {
	m := NewManager(1 << 20)
	for i := 0; i < 10; i++ {
		if _, err := m.Alloc(i, int64(1000*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	m.Reset(1 << 16)
	if m.Size() != 1<<16 || m.Used() != 0 || ownedBy(m, 3) != 0 || len(m.free) != 1 {
		t.Fatalf("reset manager: size %d, used %d, owner 3 holds %d, %d spans",
			m.Size(), m.Used(), ownedBy(m, 3), len(m.free))
	}
	fresh := NewManager(1 << 16)
	for i := 0; i < 5; i++ {
		a, errA := m.Alloc(i, 3000)
		b, errB := fresh.Alloc(i, 3000)
		if a != b || (errA == nil) != (errB == nil) {
			t.Fatalf("alloc %d: reset manager gave %#x (%v), fresh %#x (%v)", i, a, errA, b, errB)
		}
	}
}
