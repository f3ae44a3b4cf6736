package resilience

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkRetryPath measures the per-retry decision hot path the cluster's
// lifecycle manager runs on every failed attempt: budget refill + take,
// jitter draw, and backoff computation. Steady state must not allocate.
func BenchmarkRetryPath(b *testing.B) {
	pol := RetryPolicy{
		MaxAttempts: 4,
		BackoffBase: 20 * sim.Microsecond,
		Budget:      &Budget{Tokens: 10, Ratio: 0.5},
	}
	pol = pol.withDefaults()
	bucket := NewTokenBucket(*pol.Budget)
	var sink sim.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bucket.Refill()
		if bucket.Take() {
			sink += pol.Delay(i&3+1, JitterU(42, i, i&3))
		}
	}
	_ = sink
}

// BenchmarkBreakerSnapshot measures the breaker bookkeeping on the completion
// path: record an outcome and read the rolling window back. Steady state must
// not allocate.
func BenchmarkBreakerSnapshot(b *testing.B) {
	br := NewBreaker(BreakerPolicy{Window: 500 * sim.Microsecond, ErrorRate: 0.99, MinVolume: 1 << 30})
	var vol, errs int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := sim.Time(i) * 10
		br.Record(now, i&7 != 0)
		v, e := snapshot(&br, now)
		vol += v
		errs += e
	}
	_, _ = vol, errs
}
