package gpu

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/mmu"
)

// Context is a GPU context: the per-process state the GPU holds (§2.1).
// Each process that uses the GPU gets its own context, containing the page
// table of its GPU address space and scheduling attributes consulted by the
// policies (priority for the priority-queue schedulers, token budget for
// DSS).
type Context struct {
	// ID is the GPU context id; it doubles as the address-space identifier
	// programmed into the SM's context-id register (§3.1).
	ID int
	// Name labels the owning process (for reports and timelines).
	Name string
	// Priority orders contexts for the priority-queue schedulers; larger is
	// more important.
	Priority int
	// PageTable is the per-process GPU page table, walked from the base
	// page-table register of SMs running this context's kernels.
	PageTable *mmu.PageTable
}

// DefaultContextCapacity is the context-table capacity of an assembled
// machine when the configuration leaves it unset: the number of processes a
// single GPU can hold simultaneously. system.New and the cluster layer both
// fall back to it; open-system runs override it with their arrival count so
// admission never fails while retired contexts free their slots.
const DefaultContextCapacity = 64

// ContextTable is the execution engine's table of active contexts (§3.1).
// The SM driver reads it during SM setup to install per-context state (the
// context id and base page-table registers) into the SM.
//
// The table also keeps a free list of retired Context structs. An open
// system admits one short-lived process per request, so Create reuses a
// recycled struct, and its page table's level-2 tables, when one is
// available. Only the struct is reused: every created context gets a fresh
// id from a counter that never goes back, because TLB entries, the SMs'
// installed-context registers and memory owners are keyed by that id. Only
// Reset, which empties the whole machine, restarts the counter.
type ContextTable struct {
	capacity int
	byID     map[int]*Context
	nextID   int
	free     []*Context // recycled structs, starts empty
}

// NewContextTable returns a context table with the given capacity.
func NewContextTable(capacity int) *ContextTable {
	t := &ContextTable{}
	t.Reset(capacity)
	return t
}

// Reset returns the table to the state NewContextTable(capacity) produces,
// except that every context struct — live or already recycled — stays on
// the free list for later Creates. Live contexts are recycled with their
// page tables cleared: a machine reset abandons their processes mid-flight.
// The id counter starts over, so the caller must also empty every structure
// keyed by context id (TLBs, SM context registers, command buffers, memory
// owners); system.System.Reset does.
func (t *ContextTable) Reset(capacity int) {
	if capacity <= 0 {
		panic("gpu: non-positive context table capacity")
	}
	t.capacity = capacity
	if t.byID == nil {
		t.byID = make(map[int]*Context)
	}
	start := len(t.free)
	for _, ctx := range t.byID {
		ctx.PageTable.Clear()
		t.free = append(t.free, ctx)
	}
	// Map order is random; recycle in id order so reuse is deterministic.
	slices.SortFunc(t.free[start:], func(a, b *Context) int { return cmp.Compare(a.ID, b.ID) })
	clear(t.byID)
	t.nextID = 0
}

// Create allocates a new context with the next free id.
func (t *ContextTable) Create(name string, priority int) (*Context, error) {
	if len(t.byID) >= t.capacity {
		return nil, fmt.Errorf("gpu: context table full (%d contexts)", t.capacity)
	}
	id := t.nextID
	t.nextID++
	var ctx *Context
	if n := len(t.free); n > 0 {
		ctx, t.free = t.free[n-1], t.free[:n-1]
		ctx.PageTable.Reset(id)
		ctx.ID, ctx.Name, ctx.Priority = id, name, priority
	} else {
		ctx = &Context{
			ID:        id,
			Name:      name,
			Priority:  priority,
			PageTable: mmu.NewPageTable(id),
		}
	}
	t.byID[id] = ctx
	return ctx, nil
}

// Lookup returns the context with the given id, or nil.
func (t *ContextTable) Lookup(id int) *Context { return t.byID[id] }

// Destroy removes the context with the given id.
func (t *ContextTable) Destroy(id int) error {
	if _, ok := t.byID[id]; !ok {
		return fmt.Errorf("gpu: destroying unknown context %d", id)
	}
	delete(t.byID, id)
	return nil
}

// Recycle hands a destroyed context's struct back for reuse by a later
// Create. The caller must hold no other reference to it: in particular, it
// recycles only after the owning process's completion callback has
// returned. Recycling a live context, or one whose page table still maps
// pages, is a caller bug and panics.
func (t *ContextTable) Recycle(ctx *Context) {
	if t.byID[ctx.ID] == ctx {
		panic(fmt.Sprintf("gpu: recycling live context %d", ctx.ID))
	}
	if n := ctx.PageTable.Mapped(); n != 0 {
		panic(fmt.Sprintf("gpu: recycling context %d with %d mapped pages", ctx.ID, n))
	}
	t.free = append(t.free, ctx)
}

// Len returns the number of active contexts.
func (t *ContextTable) Len() int { return len(t.byID) }
