// Package gmem models the GPU's physical memory. Like the baseline GK110 in
// the paper, the GPU has no demand paging: allocations from all contexts are
// resident in physical memory for their whole lifetime, and allocation fails
// when physical memory is exhausted.
package gmem

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// PAddr is a GPU physical address.
type PAddr uint64

// Manager is a first-fit physical memory allocator with per-owner
// accounting. Owners are context ids; owner -1 is the system (for example,
// the preallocated context-save areas of §3.2 belong to the kernel's
// context, while framework structures belong to the system).
type Manager struct {
	size  int64
	used  int64  // running sum of live allocation sizes
	free  []span // sorted by base
	inUse map[PAddr]alloc
	owned map[int]int64
	bases []PAddr // FreeOwner's scratch, reused across calls
	oom   oomError
}

type span struct {
	base PAddr
	size int64
}

type alloc struct {
	size  int64
	owner int
}

// ErrOutOfMemory matches (errors.Is) the error Alloc returns when no free
// span can hold the request.
var ErrOutOfMemory = errors.New("gmem: out of memory")

// oomError details a failed Alloc. Admission paths probe for space on every
// placement and discard the failure, so the manager keeps one in place and
// returns a pointer to it: a failing Alloc allocates nothing, and the
// message is formatted only if someone reads it. Its details describe the
// manager's latest failure, so a caller that keeps the error across Alloc
// calls may see them change.
type oomError struct {
	size, used, total int64
	owner             int
}

func (e *oomError) Error() string {
	return fmt.Sprintf("gmem: out of memory allocating %d bytes for owner %d (used %d of %d, %d free)",
		e.size, e.owner, e.used, e.total, e.total-e.used)
}

// Is makes errors.Is(err, ErrOutOfMemory) hold.
func (e *oomError) Is(target error) bool { return target == ErrOutOfMemory }

// NewManager returns a manager for size bytes of physical memory.
func NewManager(size int64) *Manager {
	m := &Manager{}
	m.Reset(size)
	return m
}

// Reset returns the manager to the state NewManager(size) produces — one
// free span covering all of memory, no allocations, no owners — keeping the
// free list's and maps' capacity. Every address handed out before the reset
// is forgotten.
func (m *Manager) Reset(size int64) {
	if size <= 0 {
		panic("gmem: non-positive memory size")
	}
	m.size, m.used = size, 0
	m.free = append(m.free[:0], span{base: 0, size: size})
	if m.inUse == nil {
		m.inUse = make(map[PAddr]alloc)
		m.owned = make(map[int]int64)
	}
	clear(m.inUse)
	clear(m.owned)
}

// Size returns the total physical memory size in bytes.
func (m *Manager) Size() int64 { return m.size }

// Used returns the number of bytes currently allocated. It is O(1) — a
// running counter, not a walk of the live allocations — because dispatchers
// consult free memory on every placement decision.
func (m *Manager) Used() int64 { return m.used }

// Available returns the number of unallocated bytes.
func (m *Manager) Available() int64 { return m.size - m.used }

// OwnedBy returns the number of bytes currently allocated to owner.
func (m *Manager) OwnedBy(owner int) int64 { return m.owned[owner] }

// Alloc reserves size bytes for owner and returns the base physical address.
// It fails with an error matching ErrOutOfMemory when no free span is large
// enough (no paging, as in the paper's baseline architecture); a failing
// call allocates nothing.
func (m *Manager) Alloc(owner int, size int64) (PAddr, error) {
	if size <= 0 {
		return 0, fmt.Errorf("gmem: allocation of %d bytes", size)
	}
	for i, s := range m.free {
		if s.size < size {
			continue
		}
		base := s.base
		if s.size == size {
			m.free = append(m.free[:i], m.free[i+1:]...)
		} else {
			m.free[i] = span{base: s.base + PAddr(size), size: s.size - size}
		}
		m.inUse[base] = alloc{size: size, owner: owner}
		m.owned[owner] += size
		m.used += size
		return base, nil
	}
	m.oom = oomError{size: size, used: m.used, total: m.size, owner: owner}
	return 0, &m.oom
}

// Free releases the allocation at base.
func (m *Manager) Free(base PAddr) error {
	a, ok := m.inUse[base]
	if !ok {
		return fmt.Errorf("gmem: freeing unallocated address %#x", uint64(base))
	}
	delete(m.inUse, base)
	m.owned[a.owner] -= a.size
	m.used -= a.size
	if m.owned[a.owner] == 0 {
		delete(m.owned, a.owner)
	}
	m.insertFree(span{base: base, size: a.size})
	return nil
}

// FreeOwner releases every allocation belonging to owner and returns the
// number of bytes freed. Used when a GPU context is destroyed.
func (m *Manager) FreeOwner(owner int) int64 {
	bases := m.bases[:0]
	for base, a := range m.inUse {
		if a.owner == owner {
			bases = append(bases, base)
		}
	}
	slices.Sort(bases)
	var freed int64
	for _, base := range bases {
		freed += m.inUse[base].size
		m.Free(base) //nolint:errcheck // base came from inUse
	}
	m.bases = bases
	return freed
}

// insertFree inserts a span keeping the free list sorted and coalesced.
func (m *Manager) insertFree(s span) {
	i := sort.Search(len(m.free), func(i int) bool { return m.free[i].base > s.base })
	m.free = append(m.free, span{})
	copy(m.free[i+1:], m.free[i:])
	m.free[i] = s
	// Coalesce with successor, then predecessor.
	if i+1 < len(m.free) && m.free[i].base+PAddr(m.free[i].size) == m.free[i+1].base {
		m.free[i].size += m.free[i+1].size
		m.free = append(m.free[:i+1], m.free[i+2:]...)
	}
	if i > 0 && m.free[i-1].base+PAddr(m.free[i-1].size) == m.free[i].base {
		m.free[i-1].size += m.free[i].size
		m.free = append(m.free[:i], m.free[i+1:]...)
	}
}

// FreeSpans returns the number of fragments in the free list (for tests).
func (m *Manager) FreeSpans() int { return len(m.free) }
