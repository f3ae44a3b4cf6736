package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkEngineHeap measures the event heap in steady state: each op fires
// the earliest event (one Step) and schedules one more (one AtFunc) at now +
// U[5µs, 25µs), so the heap holds a constant number of pending events. 8 is
// a small kernel mix; 208 fills every thread-block slot of a K20c (13 SMs ×
// 16), where each TB completion is one pending event.
func BenchmarkEngineHeap(b *testing.B) {
	nop := func(p any, x int64) {}
	for _, pending := range []int{8, 208} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			delays := make([]Time, 4096)
			for i := range delays {
				delays[i] = 5*Microsecond + Time(r.Int63n(int64(20*Microsecond)))
			}
			e := NewEngine()
			for i := 0; i < pending; i++ {
				e.AtFunc(delays[i], nop, nil, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
				e.AtFunc(e.Now()+delays[i&(len(delays)-1)], nop, nil, 0)
			}
		})
	}
}
