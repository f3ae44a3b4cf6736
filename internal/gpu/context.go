package gpu

import (
	"cmp"
	"fmt"
	"slices"
)

// Context is a GPU context: the per-process state the GPU holds (§2.1).
// Each process that uses the GPU gets its own context, carrying the
// scheduling attributes consulted by the policies (priority for the
// priority-queue schedulers, token budget for DSS). Address translation is
// not modeled: installing a context on an SM costs SMSetupLatency, and
// moving thread-block context costs bytes over memory bandwidth.
type Context struct {
	// ID is the GPU context id (§3.1).
	ID int
	// Slot is the context's position in its table while it is live: slots
	// are dense, start at 0 and go to the next Create once the context is
	// destroyed, so per-context bookkeeping (the execution engine's command
	// buffers) indexes a slice by Slot instead of hashing ID. It is -1 once
	// the context was destroyed.
	Slot int
	// Name labels the owning process (for reports and timelines).
	Name string
	// Priority orders contexts for the priority-queue schedulers; larger is
	// more important.
	Priority int
}

// DefaultContextCapacity is the context-table capacity of an assembled
// machine when the configuration leaves it unset: the number of processes a
// single GPU can hold simultaneously. system.New and the cluster layer both
// fall back to it; open-system runs override it with their arrival count so
// admission never fails while retired contexts free their slots.
const DefaultContextCapacity = 64

// ContextTable is the execution engine's table of active contexts (§3.1).
//
// Live contexts sit in a slot table: Create takes the most recently freed
// slot (or a new one) and Destroy frees it, so the table grows to the most
// contexts live at once. The table also keeps a free list of retired
// Context structs. An open system admits one short-lived process per
// request, so Create reuses a recycled struct when one is available. Slots
// and structs are reused, ids are not: every created context gets a fresh
// id from a counter that never goes back, because the execution engine's
// command buffers and the policies tell processes apart by that id, and
// timelines and PCIe transfers label a process's work with it: a reused id
// would merge a retired process with its successor. Only Reset, which
// empties the whole machine, restarts the counter.
type ContextTable struct {
	capacity  int
	slots     []*Context // live contexts by Slot; nil for a free slot
	freeSlots []int      // free slots, most recently freed last
	live      int
	nextID    int
	free      []*Context // recycled structs, starts empty
}

// NewContextTable returns a context table with the given capacity.
func NewContextTable(capacity int) *ContextTable {
	t := &ContextTable{}
	t.Reset(capacity)
	return t
}

// Reset returns the table to the state NewContextTable(capacity) produces,
// except that every context struct — live or already recycled — stays on
// the free list for later Creates. Live contexts are recycled in id order:
// a machine reset abandons their processes mid-flight. The id counter
// starts over, so the caller must also empty every structure that holds a
// context (the execution engine's command buffers); system.System.Reset
// does.
func (t *ContextTable) Reset(capacity int) {
	if capacity <= 0 {
		panic("gpu: non-positive context table capacity")
	}
	t.capacity = capacity
	start := len(t.free)
	for _, ctx := range t.slots {
		if ctx != nil {
			ctx.Slot = -1
			t.free = append(t.free, ctx)
		}
	}
	// Slots are reused out of id order; recycle in id order so reuse
	// after a reset does not depend on which slots the contexts held.
	slices.SortFunc(t.free[start:], func(a, b *Context) int { return cmp.Compare(a.ID, b.ID) })
	clear(t.slots)
	if t.slots == nil {
		// Room for the first contexts, so a small machine's table never
		// regrows.
		t.slots = make([]*Context, 0, min(capacity, 8))
	}
	t.slots, t.freeSlots = t.slots[:0], t.freeSlots[:0]
	t.live = 0
	t.nextID = 0
}

// Create allocates a new context with the next free id.
func (t *ContextTable) Create(name string, priority int) (*Context, error) {
	if t.live >= t.capacity {
		return nil, fmt.Errorf("gpu: context table full (%d contexts)", t.capacity)
	}
	id := t.nextID
	t.nextID++
	var ctx *Context
	if n := len(t.free); n > 0 {
		ctx, t.free = t.free[n-1], t.free[:n-1]
		ctx.ID, ctx.Name, ctx.Priority = id, name, priority
	} else {
		ctx = &Context{ID: id, Name: name, Priority: priority}
	}
	if n := len(t.freeSlots); n > 0 {
		ctx.Slot, t.freeSlots = t.freeSlots[n-1], t.freeSlots[:n-1]
	} else {
		ctx.Slot = len(t.slots)
		t.slots = append(t.slots, nil)
	}
	t.slots[ctx.Slot] = ctx
	t.live++
	return ctx, nil
}

// Lookup returns the live context with the given id, or nil. It scans the
// slot table: a caller that holds the context uses it directly.
func (t *ContextTable) Lookup(id int) *Context {
	for _, ctx := range t.slots {
		if ctx != nil && ctx.ID == id {
			return ctx
		}
	}
	return nil
}

// Destroy removes a live context from the table and frees its slot.
func (t *ContextTable) Destroy(ctx *Context) error {
	if !t.holds(ctx) {
		return fmt.Errorf("gpu: destroying unknown context %d", ctx.ID)
	}
	t.slots[ctx.Slot] = nil
	t.freeSlots = append(t.freeSlots, ctx.Slot)
	ctx.Slot = -1
	t.live--
	return nil
}

// holds reports whether ctx is live in the table.
func (t *ContextTable) holds(ctx *Context) bool {
	return ctx.Slot >= 0 && ctx.Slot < len(t.slots) && t.slots[ctx.Slot] == ctx
}

// Recycle hands a destroyed context's struct back for reuse by a later
// Create. The caller must hold no other reference to it: in particular, it
// recycles only after the owning process's completion callback has
// returned. Recycling a live context is a caller bug and panics.
func (t *ContextTable) Recycle(ctx *Context) {
	if t.holds(ctx) {
		panic(fmt.Sprintf("gpu: recycling live context %d", ctx.ID))
	}
	t.free = append(t.free, ctx)
}

// Len returns the number of active contexts.
func (t *ContextTable) Len() int { return t.live }
