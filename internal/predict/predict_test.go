package predict

import (
	"maps"
	"math"
	"math/rand"
	"testing"
)

func TestFirstSampleIsEstimate(t *testing.T) {
	e := NewEWMA[string](0.25)
	if _, ok := e.Predict("k"); ok {
		t.Error("empty estimator predicted")
	}
	e.Observe("k", 42)
	if v, ok := e.Predict("k"); !ok || v != 42 {
		t.Errorf("Predict = %v,%v after first sample, want 42,true", v, ok)
	}
}

func TestConvergesToConstantStream(t *testing.T) {
	e := NewEWMA[int](0.25)
	e.Observe(1, 1000)
	for i := 0; i < 60; i++ {
		e.Observe(1, 10)
	}
	v, _ := e.Predict(1)
	if math.Abs(v-10) > 0.01 {
		t.Errorf("estimate %v did not converge to 10", v)
	}
}

func TestRecencyWeighting(t *testing.T) {
	// With alpha 0.5 the estimate after samples 0,100 is 50: the new sample
	// carries alpha of the weight.
	e := NewEWMA[int](0.5)
	e.Observe(7, 0)
	e.Observe(7, 100)
	if v, _ := e.Predict(7); v != 50 {
		t.Errorf("estimate %v, want 50", v)
	}
}

func TestKeysAreIndependent(t *testing.T) {
	e := NewEWMA[string](0.5)
	e.Observe("a", 1)
	e.Observe("b", 2)
	if len(e.est) != 2 {
		t.Errorf("%d keys, want 2", len(e.est))
	}
	if v, _ := e.Predict("a"); v != 1 {
		t.Errorf("a = %v", v)
	}
	if v, _ := e.Predict("b"); v != 2 {
		t.Errorf("b = %v, want 2", v)
	}
}

func TestAlphaValidation(t *testing.T) {
	for _, alpha := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha %v accepted", alpha)
				}
			}()
			NewEWMA[int](alpha)
		}()
	}
	NewEWMA[int](1) // boundary: valid
}

// TestMatchesPlainMap interleaves Observe, Predict, Snapshot and Restore
// over a few keys, seeded, and compares every step with a plain map running
// the same update: the hot-key cache must never show.
func TestMatchesPlainMap(t *testing.T) {
	const alpha = 0.25
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		e := NewEWMA[int](alpha)
		ref := map[int]float64{}
		var snap map[int]float64
		var refSnap map[int]float64
		for step := 0; step < 2000; step++ {
			key := r.Intn(4)
			if r.Intn(3) > 0 {
				key = 0 // long runs of one key, as thread blocks of a kernel give
			}
			switch op := r.Intn(19); {
			case op < 12:
				sample := r.Float64() * 1000
				e.Observe(key, sample)
				if old, ok := ref[key]; ok {
					ref[key] = old + float64(alpha*(sample-old))
				} else {
					ref[key] = sample
				}
			case op < 16:
				// Predict is checked after every step below.
			case op < 18:
				snap, refSnap = e.Snapshot(), maps.Clone(ref)
				if !maps.Equal(snap, refSnap) {
					t.Fatalf("seed %d step %d: Snapshot %v, want %v", seed, step, snap, refSnap)
				}
			default:
				if snap != nil {
					e.Restore(snap)
					ref = maps.Clone(refSnap)
				}
			}
			if len(e.est) != len(ref) {
				t.Fatalf("seed %d step %d: %d keys, want %d", seed, step, len(e.est), len(ref))
			}
			for k := 0; k < 4; k++ {
				got, ok := e.Predict(k)
				want, wok := ref[k]
				if got != want || ok != wok {
					t.Fatalf("seed %d step %d: Predict(%d) = %v,%v, want %v,%v", seed, step, k, got, ok, want, wok)
				}
			}
		}
	}
}

// TestHotKeyAddsNoAllocation requires a run of one key's Observe and Predict
// to allocate nothing once the key is known.
func TestHotKeyAddsNoAllocation(t *testing.T) {
	e := NewEWMA[int](0.5)
	e.Observe(1, 10)
	e.Observe(2, 20)
	if n := testing.AllocsPerRun(100, func() {
		e.Observe(1, 12)
		e.Predict(1)
		e.Observe(2, 22)
		e.Predict(2)
	}); n != 0 {
		t.Errorf("Observe/Predict allocated %v times per run", n)
	}
}
