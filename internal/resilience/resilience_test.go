package resilience

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestSpecEnabled(t *testing.T) {
	var nilSpec *Spec
	if nilSpec.Enabled() {
		t.Error("nil spec reports enabled")
	}
	if (&Spec{}).Enabled() {
		t.Error("zero spec reports enabled")
	}
	if (&Spec{Seed: 42}).Enabled() {
		t.Error("seed-only spec reports enabled: a seed arms nothing")
	}
	for name, s := range map[string]*Spec{
		"timeout": {Timeout: sim.Microsecond},
		"retry":   {Retry: &RetryPolicy{}},
		"hedge":   {Hedge: &HedgePolicy{}},
		"breaker": {Breaker: &BreakerPolicy{}},
		"shed":    {Shed: &ShedPolicy{}},
	} {
		if !s.Enabled() {
			t.Errorf("%s spec reports disabled", name)
		}
	}
}

func TestSpecValidateRejects(t *testing.T) {
	var nilSpec *Spec
	if err := nilSpec.Validate(); err != nil {
		t.Errorf("nil spec rejected: %v", err)
	}
	cases := map[string]*Spec{
		"negative timeout":      {Timeout: -1},
		"negative max attempts": {Retry: &RetryPolicy{MaxAttempts: -1}},
		"negative backoff":      {Retry: &RetryPolicy{BackoffBase: -sim.Microsecond}},
		"negative backoff cap":  {Retry: &RetryPolicy{BackoffMax: -1}},
		"cap below base":        {Retry: &RetryPolicy{BackoffBase: 10, BackoffMax: 5}},
		"jitter above one":      {Retry: &RetryPolicy{JitterFrac: 1.5}},
		"negative budget":       {Retry: &RetryPolicy{Budget: &Budget{Tokens: -1}}},
		"negative budget ratio": {Retry: &RetryPolicy{Budget: &Budget{Ratio: -0.1}}},
		"hedge quantile":        {Hedge: &HedgePolicy{Quantile: 1.5}},
		"hedge warmup":          {Hedge: &HedgePolicy{MinObs: -1}},
		"hedge cap":             {Hedge: &HedgePolicy{MaxHedges: -1}},
		"breaker window":        {Breaker: &BreakerPolicy{Window: -1}},
		"breaker error rate":    {Breaker: &BreakerPolicy{ErrorRate: 2}},
		"breaker volume":        {Breaker: &BreakerPolicy{MinVolume: -1}},
		"breaker cooldown":      {Breaker: &BreakerPolicy{Cooldown: -1}},
		"breaker probes":        {Breaker: &BreakerPolicy{Probes: -1}},
		"shed ceiling":          {Shed: &ShedPolicy{PerNode: -1}},
		"shed queue":            {Shed: &ShedPolicy{Queue: -1}},
	}
	for name, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		} else if !strings.Contains(err.Error(), "resilience:") {
			t.Errorf("%s: error %q not namespaced", name, err)
		}
	}
}

func TestSpecWithDefaults(t *testing.T) {
	s := Spec{
		Retry:   &RetryPolicy{BackoffBase: 10 * sim.Microsecond, Budget: &Budget{}},
		Hedge:   &HedgePolicy{},
		Breaker: &BreakerPolicy{},
		Shed:    &ShedPolicy{},
	}
	d := s.WithDefaults()
	if d.Retry.BackoffMax != 640*sim.Microsecond {
		t.Errorf("backoff cap defaulted to %v, want 64x base", d.Retry.BackoffMax)
	}
	if d.Retry.JitterFrac != 0.5 {
		t.Errorf("jitter defaulted to %v, want 0.5", d.Retry.JitterFrac)
	}
	if d.Retry.Budget.Tokens != 10 || d.Retry.Budget.Ratio != 0.1 {
		t.Errorf("budget defaulted to %+v, want 10 tokens at 0.1", *d.Retry.Budget)
	}
	if d.Hedge.Quantile != 0.95 || d.Hedge.MinObs != 16 || d.Hedge.MaxHedges != 1 {
		t.Errorf("hedge defaulted to %+v", *d.Hedge)
	}
	if d.Breaker.Window != 500*sim.Microsecond || d.Breaker.ErrorRate != 0.5 ||
		d.Breaker.MinVolume != 8 || d.Breaker.Cooldown != d.Breaker.Window || d.Breaker.Probes != 1 {
		t.Errorf("breaker defaulted to %+v", *d.Breaker)
	}
	if d.Shed.PerNode != 8 {
		t.Errorf("shed ceiling defaulted to %d, want 8", d.Shed.PerNode)
	}
	// Defaulting must not mutate the original's nested policies in place.
	if s.Retry.BackoffMax != 0 {
		t.Error("WithDefaults mutated the source spec")
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	s := Spec{
		Seed:    9,
		Timeout: 300 * sim.Microsecond,
		Retry: &RetryPolicy{
			MaxAttempts: 4,
			BackoffBase: 20 * sim.Microsecond,
			Budget:      &Budget{Tokens: 5, Ratio: 0.2},
		},
		Hedge:   &HedgePolicy{Quantile: 0.9, MinObs: 8, MaxHedges: 2},
		Breaker: &BreakerPolicy{Window: sim.Millisecond, ErrorRate: 0.3, MinVolume: 4},
		Shed:    &ShedPolicy{PerNode: 16, Queue: 64},
	}
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Timeout != s.Timeout || *back.Retry.Budget != *s.Retry.Budget ||
		*back.Hedge != *s.Hedge || *back.Breaker != *s.Breaker || *back.Shed != *s.Shed {
		t.Errorf("round trip changed the spec: %s", blob)
	}
	if !strings.Contains(string(blob), `"max_attempts":4`) {
		t.Errorf("unexpected JSON shape: %s", blob)
	}
}

func TestRetryDelay(t *testing.T) {
	p := RetryPolicy{BackoffBase: 10 * sim.Microsecond}
	p = p.withDefaults()

	if d := p.Delay(0, 0); d != 0 {
		t.Errorf("delay before any retry = %v", d)
	}
	// u = 0 keeps the full exponential value.
	want := []sim.Time{10, 20, 40, 80, 160, 320, 640}
	for n := 1; n <= len(want); n++ {
		if d := p.Delay(n, 0); d != want[n-1]*sim.Microsecond {
			t.Errorf("delay(%d) = %v, want %v", n, d, want[n-1]*sim.Microsecond)
		}
	}
	// The cap saturates: far past the cap, still BackoffMax, no overflow.
	if d := p.Delay(500, 0); d != p.BackoffMax {
		t.Errorf("delay(500) = %v, want cap %v", d, p.BackoffMax)
	}
	// Jitter scales into [1-JitterFrac, 1] x delay.
	lo := p.Delay(3, 0.999999)
	hi := p.Delay(3, 0)
	if lo >= hi || float64(lo) < 0.49*float64(hi) {
		t.Errorf("jitter range [%v, %v] not in [half, full]", lo, hi)
	}

	// No backoff configured: always immediate.
	zero := RetryPolicy{}
	if d := zero.Delay(3, 0.5); d != 0 {
		t.Errorf("zero policy delay = %v", d)
	}
}

func TestJitterUDeterministicAndUniform(t *testing.T) {
	if JitterU(1, 2, 3) != JitterU(1, 2, 3) {
		t.Fatal("jitter draw not deterministic")
	}
	if JitterU(1, 2, 3) == JitterU(2, 2, 3) || JitterU(1, 2, 3) == JitterU(1, 3, 3) {
		t.Error("jitter draws collide across seed/request")
	}
	var sum float64
	const n = 4096
	for i := 0; i < n; i++ {
		u := JitterU(7, i, 1)
		if u < 0 || u >= 1 {
			t.Fatalf("draw %d = %v outside [0, 1)", i, u)
		}
		sum += u
	}
	if mean := sum / n; mean < 0.45 || mean > 0.55 {
		t.Errorf("draw mean %v far from 0.5", mean)
	}
}

func TestTokenBucket(t *testing.T) {
	b := NewTokenBucket(Budget{Tokens: 2, Ratio: 0.5})
	if !b.Take() || !b.Take() {
		t.Fatal("full bucket refused its capacity")
	}
	if b.Take() {
		t.Fatal("empty bucket granted a token")
	}
	b.Refill() // 0.5: still below a whole token
	if b.Take() {
		t.Fatal("half a token granted")
	}
	b.Refill() // 1.0
	if !b.Take() {
		t.Fatal("rebuilt token refused")
	}
	for i := 0; i < 100; i++ {
		b.Refill()
	}
	if b.bal != 2 {
		t.Errorf("balance %v exceeds capacity 2", b.bal)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	// Raw-tick times keep the arithmetic readable; the breaker only ever
	// compares durations.
	pol := BreakerPolicy{Window: 100, ErrorRate: 0.5, MinVolume: 4, Cooldown: 50, Probes: 2}
	b := NewBreaker(pol)

	if !b.Allow(0) || b.State(0) != BreakerClosed {
		t.Fatal("fresh breaker not closed")
	}
	// Below MinVolume nothing trips, even at 100% errors.
	b.Record(1, false)
	b.Record(2, false)
	b.Record(3, false)
	if b.State(3) != BreakerClosed {
		t.Fatal("breaker tripped below MinVolume")
	}
	// Fourth error crosses both volume and rate: trip.
	b.Record(4, false)
	if b.State(4) != BreakerOpen || b.Allow(4) {
		t.Fatal("breaker did not trip at 4/4 errors")
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d", b.Trips())
	}
	// Straggler outcomes while open are ignored.
	b.Record(10, true)
	if b.State(10) != BreakerOpen {
		t.Fatal("open breaker consumed a straggler outcome")
	}
	// Cooldown elapses: half-open with a probe quota of 2.
	if b.State(54) != BreakerHalfOpen || !b.Allow(54) {
		t.Fatal("cooldown did not half-open the breaker")
	}
	b.Dispatched(55)
	b.Dispatched(55)
	if b.Allow(55) {
		t.Fatal("probe quota not enforced")
	}
	// A probe failure re-trips immediately.
	b.Record(56, false)
	if b.State(56) != BreakerOpen || b.Trips() != 2 {
		t.Fatalf("probe failure: state %v, trips %d", b.State(56), b.Trips())
	}
	// Next half-open: a probe success closes and clears the window.
	if b.State(106+1) != BreakerHalfOpen {
		t.Fatal("second cooldown did not half-open")
	}
	b.Dispatched(107)
	b.Record(108, true)
	if b.State(108) != BreakerClosed {
		t.Fatal("probe success did not close the breaker")
	}
	if vol, errs := snapshot(&b, 108); vol != 0 || errs != 0 {
		t.Fatalf("window not cleared on close: %d/%d", errs, vol)
	}
}

// snapshot reports the breaker's rolling window as of now: observation
// volume and error count.
func snapshot(b *Breaker, now sim.Time) (volume, errors int) {
	b.rotate(now)
	errors = b.curErr + b.prevErr
	return errors + b.curOK + b.prevOK, errors
}

func TestBreakerWindowRotation(t *testing.T) {
	pol := BreakerPolicy{Window: 100, ErrorRate: 0.5, MinVolume: 100}
	b := NewBreaker(pol)
	for i := 0; i < 6; i++ {
		b.Record(sim.Time(i), false)
	}
	if vol, errs := snapshot(&b, 10); vol != 6 || errs != 6 {
		t.Fatalf("fresh window %d/%d, want 6/6", errs, vol)
	}
	// Half a window later the errors move to the previous bucket but still
	// count; a full window later they age out.
	if _, errs := snapshot(&b, 60); errs != 6 {
		t.Fatalf("half-window-old errors dropped: %d", errs)
	}
	if vol, errs := snapshot(&b, 160); vol != 0 || errs != 0 {
		t.Fatalf("stale window retained %d/%d", errs, vol)
	}
	// A long quiet gap clears in one rotate, not thousands.
	b.Record(200, false)
	if vol, _ := snapshot(&b, sim.Second); vol != 0 {
		t.Fatal("long gap did not clear the window")
	}
}

func TestBreakerReset(t *testing.T) {
	b := NewBreaker(BreakerPolicy{Window: 100, ErrorRate: 0.1, MinVolume: 2})
	b.Record(1, false)
	b.Record(2, false)
	if b.State(2) != BreakerOpen {
		t.Fatal("setup: breaker should have tripped")
	}
	b.Reset(3)
	if b.State(3) != BreakerClosed || !b.Allow(3) {
		t.Fatal("reset breaker not closed")
	}
	if vol, _ := snapshot(&b, 3); vol != 0 {
		t.Fatal("reset did not clear the window")
	}
	if b.Trips() != 1 {
		t.Error("reset erased the lifetime trip count")
	}
}
