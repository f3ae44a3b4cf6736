// Package predict provides the online runtime estimators that make
// preemption-mechanism selection decidable: Pai et al. ("Preemptive Thread
// Block Scheduling with Online Structural Runtime Prediction") show that a
// per-kernel estimate of thread-block runtime, learned from the thread
// blocks that already completed, is enough to choose between draining and
// switching at each preemption. The adaptive mechanism in internal/preempt
// keys an exponentially-weighted moving average by kernel specification, so
// repeated launches of the same kernel (the replay methodology re-launches
// every kernel many times) keep refining one estimate.
//
// Estimators are deliberately dumb containers: plain maps (plus a one-key
// cache), no locking, no time source. Each simulation owns its own
// estimator, which keeps runs pure functions of their seed at any worker
// count.
package predict

// EWMA is an exponentially-weighted moving-average estimator keyed by an
// arbitrary comparable key (the adaptive mechanism uses *trace.KernelSpec).
// The zero value is not usable; construct with NewEWMA.
//
// The adaptive mechanism observes mostly runs of one key (a kernel's
// thread-block completions), so the last key observed and its estimate
// live outside the map: Observe and Predict on that key touch no map. The
// map entry of the hot key is stale while it is cached; the cache is
// written back when another key is observed and before Snapshot.
type EWMA[K comparable] struct {
	alpha float64
	est   map[K]float64

	hot    bool // hotKey and hotVal are valid
	hotKey K
	hotVal float64
}

// NewEWMA returns an estimator with smoothing factor alpha in (0, 1]: the
// weight of each new sample. alpha = 1 tracks only the latest sample; small
// alphas average over a long history.
func NewEWMA[K comparable](alpha float64) *EWMA[K] {
	if alpha <= 0 || alpha > 1 {
		panic("predict: EWMA smoothing factor must be in (0, 1]")
	}
	return &EWMA[K]{alpha: alpha, est: make(map[K]float64)}
}

// Observe folds one sample into the key's estimate. The first sample for a
// key becomes the estimate directly.
func (e *EWMA[K]) Observe(key K, sample float64) {
	if e.hot && e.hotKey == key {
		e.hotVal = e.update(e.hotVal, sample)
		return
	}
	e.writeBack()
	v, ok := e.est[key]
	if ok {
		v = e.update(v, sample)
	} else {
		v = sample
		e.est[key] = v // counted by Len from the first sample on
	}
	e.hot, e.hotKey, e.hotVal = true, key, v
}

// update returns old moved alpha of the way toward sample. The conversion
// rounds the product, so no GOARCH fuses the sum into a multiply-add and
// estimates are the same on every machine.
func (e *EWMA[K]) update(old, sample float64) float64 {
	return old + float64(e.alpha*(sample-old))
}

// writeBack stores the cached hot estimate in the map; the cache stays valid.
func (e *EWMA[K]) writeBack() {
	if e.hot {
		e.est[e.hotKey] = e.hotVal
	}
}

// Predict returns the key's current estimate, and whether any sample has
// been observed for it.
func (e *EWMA[K]) Predict(key K) (float64, bool) {
	if e.hot && e.hotKey == key {
		return e.hotVal, true
	}
	v, ok := e.est[key]
	return v, ok
}

// Snapshot returns a copy of every key's current estimate, suitable for
// warm-starting a fresh estimator with Restore. The copy shares nothing with
// the estimator, so the snapshot stays valid as observations continue.
func (e *EWMA[K]) Snapshot() map[K]float64 {
	e.writeBack()
	out := make(map[K]float64, len(e.est))
	for k, v := range e.est {
		out[k] = v
	}
	return out
}

// Restore replaces the estimator's state with a snapshot previously taken by
// Snapshot (the smoothing factor is unchanged). The snapshot is copied, not
// retained.
func (e *EWMA[K]) Restore(snap map[K]float64) {
	e.hot = false
	e.est = make(map[K]float64, len(snap))
	for k, v := range snap {
		e.est[k] = v
	}
}
