package gpu

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"
)

// refTable is a naive context-table model: live contexts in a map by id,
// the id counter, and the recycled structs in the order Create takes them
// (last first).
type refTable struct {
	capacity int
	live     map[int]*Context
	nextID   int
	free     []*Context
	peak     int // most contexts live at once since the last reset
}

func (r *refTable) reset(capacity int) {
	r.capacity = capacity
	for _, id := range slices.Sorted(maps.Keys(r.live)) {
		r.free = append(r.free, r.live[id])
	}
	r.live = map[int]*Context{}
	r.nextID, r.peak = 0, 0
}

// TestContextTableMatchesMapModel drives the slot table and the model
// through the same seeded Create/Destroy/Recycle/Reset/Lookup sequences.
// Ids rise until a Reset and restart there, a full table refuses Create,
// Create reuses recycled structs in the model's order (a Reset recycles live
// contexts in id order), Lookup agrees for live, destroyed and unknown ids,
// and every live context sits in its own slot of a table no longer than the
// most contexts live at once since the Reset.
func TestContextTableMatchesMapModel(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rnd := rand.New(rand.NewPCG(seed, 0x51a7))
			capacity := 1 + rnd.IntN(12)
			tbl := NewContextTable(capacity)
			ref := &refTable{}
			ref.reset(capacity)
			var dead []*Context // destroyed, not yet recycled
			refusals := 0
			for step := 0; step < 3000; step++ {
				what := ""
				switch op := rnd.IntN(100); {
				case op < 45:
					what = "create"
					name, prio := fmt.Sprint("p", step), rnd.IntN(3)
					ctx, err := tbl.Create(name, prio)
					if len(ref.live) >= ref.capacity {
						if err == nil {
							t.Fatalf("step %d: Create succeeded on a full table (%d live)", step, len(ref.live))
						}
						refusals++
						break
					}
					if err != nil {
						t.Fatalf("step %d: Create: %v", step, err)
					}
					if n := len(ref.free); n > 0 {
						if ctx != ref.free[n-1] {
							t.Fatalf("step %d: Create did not reuse the model's next recycled struct", step)
						}
						ref.free = ref.free[:n-1]
					}
					if ctx.ID != ref.nextID || ctx.Name != name || ctx.Priority != prio || ctx.PageTable.ASID != ctx.ID {
						t.Fatalf("step %d: created context %+v, want id %d", step, ctx, ref.nextID)
					}
					ref.live[ctx.ID] = ctx
					ref.nextID++
					ref.peak = max(ref.peak, len(ref.live))
				case op < 80:
					what = "destroy"
					if len(ref.live) == 0 || rnd.IntN(10) == 0 {
						if len(dead) > 0 {
							if err := tbl.Destroy(dead[rnd.IntN(len(dead))]); err == nil {
								t.Fatalf("step %d: destroying a destroyed context succeeded", step)
							}
						}
						break
					}
					ids := slices.Sorted(maps.Keys(ref.live))
					ctx := ref.live[ids[rnd.IntN(len(ids))]]
					if err := tbl.Destroy(ctx); err != nil {
						t.Fatalf("step %d: Destroy: %v", step, err)
					}
					if ctx.Slot != -1 {
						t.Fatalf("step %d: destroyed context keeps slot %d", step, ctx.Slot)
					}
					delete(ref.live, ctx.ID)
					dead = append(dead, ctx)
				case op < 92:
					what = "recycle"
					if len(dead) == 0 {
						break
					}
					k := rnd.IntN(len(dead))
					tbl.Recycle(dead[k])
					ref.free = append(ref.free, dead[k])
					dead = slices.Delete(dead, k, k+1)
				case op < 94:
					what = "reset"
					capacity = 1 + rnd.IntN(12)
					tbl.Reset(capacity)
					ref.reset(capacity)
				default:
					what = "lookup"
				}
				for id := -1; id <= ref.nextID+1; id++ {
					if got, want := tbl.Lookup(id), ref.live[id]; got != want {
						t.Fatalf("step %d (%s): Lookup(%d) = %p, want %p", step, what, id, got, want)
					}
				}
				if tbl.Len() != len(ref.live) {
					t.Fatalf("step %d (%s): Len %d, want %d", step, what, tbl.Len(), len(ref.live))
				}
				if len(tbl.slots) > ref.peak {
					t.Fatalf("step %d (%s): %d slots for at most %d live contexts", step, what, len(tbl.slots), ref.peak)
				}
				for _, ctx := range ref.live {
					if ctx.Slot < 0 || ctx.Slot >= len(tbl.slots) || tbl.slots[ctx.Slot] != ctx {
						t.Fatalf("step %d (%s): context %d not in its slot %d", step, what, ctx.ID, ctx.Slot)
					}
				}
			}
			if refusals == 0 {
				t.Error("no Create hit a full table; the capacity check went untested")
			}
		})
	}
}
