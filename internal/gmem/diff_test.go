package gmem

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// refManager is a naive first-fit reference: an unsorted list of live
// allocations, with the free gaps, used bytes and per-owner bytes
// recomputed from scratch whenever they are needed.
type refManager struct {
	size int64
	live []alloc
}

// gaps returns the free spans in base order.
func (r *refManager) gaps() []span {
	live := slices.Clone(r.live)
	slices.SortFunc(live, func(a, b alloc) int { return cmp.Compare(a.base, b.base) })
	var out []span
	var at PAddr
	for _, a := range live {
		if a.base > at {
			out = append(out, span{base: at, size: int64(a.base - at)})
		}
		at = a.base + PAddr(a.size)
	}
	if end := PAddr(r.size); end > at {
		out = append(out, span{base: at, size: int64(end - at)})
	}
	return out
}

func (r *refManager) alloc(owner int, size int64) (PAddr, bool) {
	for _, g := range r.gaps() {
		if g.size >= size {
			r.live = append(r.live, alloc{base: g.base, size: size, owner: owner})
			return g.base, true
		}
	}
	return 0, false
}

func (r *refManager) freeOwner(owner int) int64 {
	var freed int64
	for i := 0; i < len(r.live); {
		if r.live[i].owner == owner {
			freed += r.live[i].size
			r.live = append(r.live[:i], r.live[i+1:]...)
			continue
		}
		i++
	}
	return freed
}

func (r *refManager) used() int64 {
	var n int64
	for _, a := range r.live {
		n += a.size
	}
	return n
}

func (r *refManager) owned(owner int) int64 {
	var n int64
	for _, a := range r.live {
		if a.owner == owner {
			n += a.size
		}
	}
	return n
}

// check compares every observable and internal quantity of m against the
// reference: used bytes, each owner's bytes, the free list, and the live
// allocations (which must not overlap).
func (r *refManager) check(m *Manager, owners int) error {
	if m.Used() != r.used() {
		return fmt.Errorf("Used %d, reference %d", m.Used(), r.used())
	}
	for o := -1; o < owners; o++ {
		if got, want := ownedBy(m, o), r.owned(o); got != want {
			return fmt.Errorf("owner %d holds %d, reference %d", o, got, want)
		}
	}
	if want := r.gaps(); !slices.Equal(m.free, want) {
		return fmt.Errorf("free list %v, reference %v", m.free, want)
	}
	if len(m.live) != len(r.live) {
		return fmt.Errorf("%d live allocations, reference %d", len(m.live), len(r.live))
	}
	live := slices.Clone(m.live)
	slices.SortFunc(live, func(a, b alloc) int { return cmp.Compare(a.base, b.base) })
	for i := 1; i < len(live); i++ {
		if live[i-1].base+PAddr(live[i-1].size) > live[i].base {
			return fmt.Errorf("live allocations %v and %v overlap", live[i-1], live[i])
		}
	}
	return nil
}

// TestManagerMatchesReference drives the manager and the naive reference
// with the same seeded random Alloc, FreeOwner and Reset calls and
// compares them after every call.
func TestManagerMatchesReference(t *testing.T) {
	const owners = 6
	for seed := uint64(1); seed <= 40; seed++ {
		rnd := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
		size := int64(1 << (12 + rnd.IntN(5)))
		m := NewManager(size)
		ref := &refManager{size: size}
		for step := 0; step < 600; step++ {
			var what string
			switch op := rnd.IntN(20); {
			case op < 10:
				owner := rnd.IntN(owners+1) - 1
				n := int64(rnd.IntN(int(size/8))) + 1
				what = fmt.Sprintf("Alloc(%d, %d)", owner, n)
				got, err := m.Alloc(owner, n)
				want, ok := ref.alloc(owner, n)
				if (err == nil) != ok || (ok && got != want) {
					t.Fatalf("seed %d step %d: %s = %#x, %v; reference %#x, %v", seed, step, what, got, err, want, ok)
				}
			case op < 19:
				owner := rnd.IntN(owners+1) - 1
				what = fmt.Sprintf("FreeOwner(%d)", owner)
				if got, want := m.FreeOwner(owner), ref.freeOwner(owner); got != want {
					t.Fatalf("seed %d step %d: %s = %d, reference %d", seed, step, what, got, want)
				}
			default:
				size = int64(1 << (12 + rnd.IntN(5)))
				what = fmt.Sprintf("Reset(%d)", size)
				m.Reset(size)
				ref = &refManager{size: size}
			}
			if err := ref.check(m, owners); err != nil {
				t.Fatalf("seed %d step %d: after %s: %v", seed, step, what, err)
			}
		}
	}
}
