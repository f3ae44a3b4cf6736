// Package gmem models the GPU's physical memory. Like the baseline GK110 in
// the paper, the GPU has no demand paging: allocations from all contexts are
// resident in physical memory for their whole lifetime, and allocation fails
// when physical memory is exhausted.
package gmem

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// PAddr is a GPU physical address.
type PAddr uint64

// Manager is a first-fit physical memory allocator with per-owner
// accounting. Owners are context ids; owner -1 is the system (for example,
// the preallocated context-save areas of §3.2 belong to the kernel's
// context, while framework structures belong to the system).
//
// Both the free spans and the live allocations are slices sorted by base
// address, so the manager holds no map: Free binary-searches the live
// slice, and FreeOwner releases an owner's allocations in one pass in base
// order.
type Manager struct {
	size int64
	used int64   // running sum of live allocation sizes
	free []span  // sorted by base, coalesced
	live []alloc // sorted by base
	oom  oomError
}

type span struct {
	base PAddr
	size int64
}

type alloc struct {
	base  PAddr
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
// capacity of both slices. Every address handed out before the reset is
// forgotten.
func (m *Manager) Reset(size int64) {
	if size <= 0 {
		panic("gmem: non-positive memory size")
	}
	m.size, m.used = size, 0
	m.free = append(m.free[:0], span{base: 0, size: size})
	m.live = m.live[:0]
}

// Used returns the number of bytes currently allocated. It is O(1) — a
// running counter, not a walk of the live allocations — because dispatchers
// consult free memory on every placement decision.
func (m *Manager) Used() int64 { return m.used }

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
		j, _ := slices.BinarySearchFunc(m.live, base, allocCmp)
		m.live = append(m.live, alloc{})
		copy(m.live[j+1:], m.live[j:])
		m.live[j] = alloc{base: base, size: size, owner: owner}
		m.used += size
		return base, nil
	}
	m.oom = oomError{size: size, used: m.used, total: m.size, owner: owner}
	return 0, &m.oom
}

// Free releases the allocation at base.
func (m *Manager) Free(base PAddr) error {
	i, ok := slices.BinarySearchFunc(m.live, base, allocCmp)
	if !ok {
		return fmt.Errorf("gmem: freeing unallocated address %#x", uint64(base))
	}
	size := m.live[i].size
	m.live = append(m.live[:i], m.live[i+1:]...)
	m.used -= size
	m.insertFree(span{base: base, size: size})
	return nil
}

// FreeOwner releases every allocation belonging to owner and returns the
// number of bytes freed. Used when a GPU context is destroyed. It frees in
// base order while compacting the survivors in place; since a sorted,
// coalesced free list depends only on which bytes are free, the order of
// the frees does not change the resulting state.
func (m *Manager) FreeOwner(owner int) int64 {
	var freed int64
	kept := 0
	for i := 0; i < len(m.live); i++ {
		a := m.live[i]
		if a.owner != owner {
			m.live[kept] = a
			kept++
			continue
		}
		freed += a.size
		m.insertFree(span{base: a.base, size: a.size})
	}
	m.live = m.live[:kept]
	m.used -= freed
	return freed
}

func allocCmp(a alloc, base PAddr) int { return cmp.Compare(a.base, base) }

func spanCmp(s span, base PAddr) int { return cmp.Compare(s.base, base) }

// insertFree returns s to the free list, keeping it sorted and coalesced:
// s merges into a neighbour it touches and is inserted only if it touches
// neither.
func (m *Manager) insertFree(s span) {
	i, _ := slices.BinarySearchFunc(m.free, s.base, spanCmp) // first span above s
	end := s.base + PAddr(s.size)
	prev := i > 0 && m.free[i-1].base+PAddr(m.free[i-1].size) == s.base
	next := i < len(m.free) && m.free[i].base == end
	switch {
	case prev && next:
		m.free[i-1].size += s.size + m.free[i].size
		m.free = append(m.free[:i], m.free[i+1:]...)
	case prev:
		m.free[i-1].size += s.size
	case next:
		m.free[i] = span{base: s.base, size: s.size + m.free[i].size}
	default:
		m.free = append(m.free, span{})
		copy(m.free[i+1:], m.free[i:])
		m.free[i] = s
	}
}
