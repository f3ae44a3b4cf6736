package core

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/gpu"
	"repro/internal/sim"
)

// refBuffer is a naive model of one context's command buffer: its FIFO of
// commands and the number of the moment its current head took the buffer.
// The pending order sorts buffers with a head by (head enqueue time, that
// number): a head that arrives later, or ties with one already listed,
// goes behind it.
type refBuffer struct {
	cmds []*LaunchCmd
	took int
}

// TestPendingQueuesMatchModel drives the framework's slot-indexed command
// buffers and the model through the same seeded sequences of context
// creation, submission (often several at one time), pops of a chosen
// context's head, and context release (refused while commands are
// pending, after which the context is destroyed and its slot and struct
// go to the next context). After every step the framework's pending heads
// must be the model's, in the model's order, and the buffers must number
// no more than the most contexts live at once.
func TestPendingQueuesMatchModel(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rnd := rand.New(rand.NewPCG(seed, 0xc0de))
			eng, fw, tbl := testFW(t, &scriptPolicy{pickPending: func(*Framework) int { return -1 }}, drainMech{})
			spec := kernelOcc("k", 1, 1, 1)
			ref := map[*gpu.Context]*refBuffer{}
			var live []*gpu.Context
			took, peak, refused := 0, 0, 0
			for step := 0; step < 4000; step++ {
				switch op := rnd.IntN(100); {
				case op < 15 || len(live) == 0:
					if tbl.Len() == 32 {
						break
					}
					ctx := mustCtx(t, tbl, fmt.Sprint("c", step), rnd.IntN(3))
					live = append(live, ctx)
					ref[ctx] = &refBuffer{}
					peak = max(peak, len(live))
				case op < 55:
					if rnd.IntN(3) == 0 {
						eng.RunUntil(eng.Now() + sim.Time(1+rnd.IntN(3)))
					}
					ctx := live[rnd.IntN(len(live))]
					r := ref[ctx]
					if len(r.cmds) == 0 {
						r.took, took = took, took+1
					}
					r.cmds = append(r.cmds, submit(t, fw, ctx, spec).cmd)
				case op < 85:
					ctx := live[rnd.IntN(len(live))]
					r := ref[ctx]
					got := fw.popPending(ctx.ID)
					if len(r.cmds) == 0 {
						if got != nil {
							t.Fatalf("step %d: popped a command from context %d's empty buffer", step, ctx.ID)
						}
						break
					}
					if got != r.cmds[0] {
						t.Fatalf("step %d: popped %p from context %d, want its head %p", step, got, ctx.ID, r.cmds[0])
					}
					r.cmds = r.cmds[1:]
					if len(r.cmds) > 0 {
						r.took, took = took, took+1
					}
				default:
					k := rnd.IntN(len(live))
					ctx := live[k]
					err := fw.ReleaseContext(ctx)
					if len(ref[ctx].cmds) > 0 {
						if err == nil {
							t.Fatalf("step %d: released context %d with %d pending commands", step, ctx.ID, len(ref[ctx].cmds))
						}
						refused++
						break
					}
					if err != nil {
						t.Fatalf("step %d: ReleaseContext: %v", step, err)
					}
					if err := tbl.Destroy(ctx); err != nil {
						t.Fatal(err)
					}
					tbl.Recycle(ctx)
					delete(ref, ctx)
					live = slices.Delete(live, k, k+1)
				}

				var want []*refBuffer
				for _, r := range ref {
					if len(r.cmds) > 0 {
						want = append(want, r)
					}
				}
				slices.SortFunc(want, func(a, b *refBuffer) int {
					return cmp.Or(cmp.Compare(a.cmds[0].Enqueued, b.cmds[0].Enqueued), cmp.Compare(a.took, b.took))
				})
				if fw.NumPending() != len(want) {
					t.Fatalf("step %d: %d pending contexts, want %d", step, fw.NumPending(), len(want))
				}
				for i, r := range want {
					if got := fw.PendingAt(i); got != r.cmds[0] {
						t.Fatalf("step %d: pending head %d is context %d's %p, want context %d's %p",
							step, i, got.Ctx.ID, got, r.cmds[0].Ctx.ID, r.cmds[0])
					}
				}
				if len(fw.pendq) > peak {
					t.Fatalf("step %d: %d command buffers for at most %d live contexts", step, len(fw.pendq), peak)
				}
			}
			if refused == 0 {
				t.Error("no release was refused; the pending-commands check went untested")
			}
		})
	}
}
