// Package resilience holds the pure, deterministic state machines behind the
// cluster's per-request lifecycle manager: attempt timeouts, retry budgets
// (token buckets refilled as a fraction of fresh admissions), exponential
// backoff with seeded jitter, hedged-request policy, per-node circuit
// breakers with rolling error windows and half-open probe recovery, and
// admission-control load shedding.
//
// Nothing in this package schedules events or touches a node: every type is a
// plain state machine driven by the cluster's control engine, so the policies
// are unit-testable in isolation and their hot paths (retry decision, breaker
// bookkeeping) stay allocation-free. The cluster imports resilience, never
// the other way around.
package resilience

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/sim"
)

// Spec is the serializable request-resilience plan: which of the lifecycle
// policies are armed and with what parameters. The zero value (and nil) is
// inert — a cluster run with a zero Spec is bit-for-bit the plain elastic
// fleet. JSON tags let a cluster topology file carry the plan
// (gpusim -cluster).
type Spec struct {
	// Seed drives the retry-jitter stream; 0 derives one from the machine
	// seed (Options.Seed at the repro facade).
	Seed uint64 `json:"seed,omitempty"`
	// Timeout is the per-attempt deadline: an attempt that has not completed
	// Timeout after its dispatch is abandoned (counted TimedOut) and the
	// request moves to the retry policy. 0 disables timeouts.
	Timeout sim.Time `json:"timeout,omitempty"`
	// Retry, when present, re-dispatches attempts abandoned by timeout or
	// destroyed by a node kill. Without it a failed request is Dropped.
	Retry *RetryPolicy `json:"retry,omitempty"`
	// Hedge, when present, launches a second attempt on another node when the
	// first outlives the class's observed latency quantile.
	Hedge *HedgePolicy `json:"hedge,omitempty"`
	// Breaker, when present, arms a circuit breaker per node slot: tripped
	// nodes are masked from dispatch until a half-open probe succeeds.
	Breaker *BreakerPolicy `json:"breaker,omitempty"`
	// Shed, when present, bounds per-class admission and sheds best-effort
	// overflow before it reaches a node; the highest-priority class is
	// exempt.
	Shed *ShedPolicy `json:"shed,omitempty"`
}

// Enabled reports whether the spec arms any lifecycle policy. A nil or
// zero-valued spec leaves the cluster on its plain code path.
func (s *Spec) Enabled() bool {
	if s == nil {
		return false
	}
	return s.Timeout > 0 || s.Retry != nil || s.Hedge != nil || s.Breaker != nil || s.Shed != nil
}

// WithDefaults returns the spec with every armed policy defaulted.
func (s Spec) WithDefaults() Spec {
	if s.Retry != nil {
		r := s.Retry.withDefaults()
		s.Retry = &r
	}
	if s.Hedge != nil {
		h := s.Hedge.withDefaults()
		s.Hedge = &h
	}
	if s.Breaker != nil {
		b := s.Breaker.withDefaults()
		s.Breaker = &b
	}
	if s.Shed != nil {
		p := s.Shed.withDefaults()
		s.Shed = &p
	}
	return s
}

// Validate checks the spec's shape. Non-positive values that would silently
// disarm a policy the config asked for (a zero timeout inside an armed spec
// is fine; a negative one is a typo) are rejected.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	if s.Timeout < 0 {
		return fmt.Errorf("resilience: negative timeout %v", s.Timeout)
	}
	if s.Retry != nil {
		if err := s.Retry.Validate(); err != nil {
			return err
		}
	}
	if s.Hedge != nil {
		if err := s.Hedge.Validate(); err != nil {
			return err
		}
	}
	if s.Breaker != nil {
		if err := s.Breaker.Validate(); err != nil {
			return err
		}
	}
	if s.Shed != nil {
		if err := s.Shed.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// RetryPolicy governs re-dispatch of failed attempts: how many attempts a
// request may consume, how long to back off between them, and the per-class
// token budget that caps the fleet-wide retry volume.
type RetryPolicy struct {
	// MaxAttempts bounds the attempts per request, first dispatch included
	// (0 = unlimited — the naive retry-storm baseline).
	MaxAttempts int `json:"max_attempts,omitempty"`
	// BackoffBase is the delay before the first retry; each further retry
	// doubles it. 0 retries immediately.
	BackoffBase sim.Time `json:"backoff_base,omitempty"`
	// BackoffMax caps the exponential delay. Default 64 × BackoffBase.
	BackoffMax sim.Time `json:"backoff_max,omitempty"`
	// JitterFrac spreads each delay uniformly over
	// [1-JitterFrac, 1] × delay. Default 0.5 when backoff is armed.
	JitterFrac float64 `json:"jitter_frac,omitempty"`
	// Budget, when present, is the per-class retry token bucket; a retry
	// with no token available Drops the request instead of re-queueing it.
	Budget *Budget `json:"budget,omitempty"`
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.BackoffBase > 0 {
		if p.BackoffMax <= 0 {
			p.BackoffMax = 64 * p.BackoffBase
		}
		if p.JitterFrac == 0 {
			p.JitterFrac = 0.5
		}
	}
	if p.Budget != nil {
		b := p.Budget.withDefaults()
		p.Budget = &b
	}
	return p
}

// Validate checks the policy's shape.
func (p *RetryPolicy) Validate() error {
	if p.MaxAttempts < 0 {
		return fmt.Errorf("resilience: negative max attempts %d", p.MaxAttempts)
	}
	if p.BackoffBase < 0 {
		return fmt.Errorf("resilience: negative backoff base %v", p.BackoffBase)
	}
	if p.BackoffMax < 0 {
		return fmt.Errorf("resilience: negative backoff cap %v", p.BackoffMax)
	}
	if p.BackoffMax > 0 && p.BackoffMax < p.BackoffBase {
		return fmt.Errorf("resilience: backoff cap %v below base %v", p.BackoffMax, p.BackoffBase)
	}
	if p.JitterFrac < 0 || p.JitterFrac > 1 || math.IsNaN(p.JitterFrac) {
		return fmt.Errorf("resilience: jitter fraction %v outside [0, 1]", p.JitterFrac)
	}
	if p.Budget != nil {
		return p.Budget.Validate()
	}
	return nil
}

// Delay returns the backoff before retry number n (n = 1 for the first
// retry) after defaults: the exponential delay capped at BackoffMax and
// scaled by a jitter factor computed from u, a uniform draw in [0, 1). The
// result is a pure function of (policy, n, u), so retry schedules replay
// byte-identically.
func (p *RetryPolicy) Delay(n int, u float64) sim.Time {
	if p.BackoffBase <= 0 || n < 1 {
		return 0
	}
	d := p.BackoffBase
	// Shift with an explicit cap: a pathological retry count must saturate,
	// not overflow.
	for i := 1; i < n && d < p.BackoffMax; i++ {
		d <<= 1
	}
	if p.BackoffMax > 0 && d > p.BackoffMax {
		d = p.BackoffMax
	}
	if p.JitterFrac > 0 {
		f := 1 - float64(p.JitterFrac*u)
		d = sim.Time(float64(d) * f)
		if d < 1 {
			d = 1
		}
	}
	return d
}

// JitterU returns the uniform draw in [0, 1) for retry number attempt of
// request req under the given seed — a stateless splitmix hash, so the
// jitter stream is independent of event order and allocation-free.
func JitterU(seed uint64, req, attempt int) float64 {
	return float64(rng.SeedFrom(seed, uint64(req), uint64(attempt))>>11) / (1 << 53)
}

// Budget is a per-class retry token bucket: every fresh (first-attempt)
// admission of the class refills Ratio tokens, every retry takes one whole
// token, and the balance is capped at Tokens. With Ratio 0.1 the fleet
// amplifies load by at most 10% no matter how hard it is failing — the
// property that prevents retry storms.
type Budget struct {
	// Tokens is the bucket capacity and starting balance. Default 10.
	Tokens float64 `json:"tokens,omitempty"`
	// Ratio is the tokens refilled per fresh admission. Default 0.1.
	Ratio float64 `json:"ratio,omitempty"`
}

func (b Budget) withDefaults() Budget {
	if b.Tokens == 0 {
		b.Tokens = 10
	}
	if b.Ratio == 0 {
		b.Ratio = 0.1
	}
	return b
}

// Validate checks the budget's shape: an armed budget with a non-positive
// capacity or refill ratio would silently drop every retry.
func (b *Budget) Validate() error {
	if b.Tokens < 0 || math.IsNaN(b.Tokens) || math.IsInf(b.Tokens, 0) {
		return fmt.Errorf("resilience: retry budget %v tokens invalid", b.Tokens)
	}
	if b.Ratio < 0 || math.IsNaN(b.Ratio) || math.IsInf(b.Ratio, 0) {
		return fmt.Errorf("resilience: retry budget ratio %v invalid", b.Ratio)
	}
	return nil
}

// TokenBucket is the running balance of one class's retry budget.
type TokenBucket struct {
	cap, ratio, bal float64
}

// NewTokenBucket builds a bucket from a defaulted Budget, starting full.
func NewTokenBucket(b Budget) TokenBucket {
	return TokenBucket{cap: b.Tokens, ratio: b.Ratio, bal: b.Tokens}
}

// Refill credits one fresh admission's worth of tokens.
func (t *TokenBucket) Refill() {
	t.bal += t.ratio
	if t.bal > t.cap {
		t.bal = t.cap
	}
}

// Take withdraws one token for a retry, reporting whether one was available.
func (t *TokenBucket) Take() bool {
	if t.bal < 1 {
		return false
	}
	t.bal--
	return true
}

// HedgePolicy launches a backup attempt for a request whose first attempt
// outlives the class's observed completion-latency quantile; the first
// completion wins and the loser is cancelled.
type HedgePolicy struct {
	// Quantile of observed class latency at which the hedge fires.
	// Default 0.95.
	Quantile float64 `json:"quantile,omitempty"`
	// MinObs is how many completions a class must have before hedging arms
	// (the quantile is noise until then). Default 16.
	MinObs int `json:"min_obs,omitempty"`
	// MaxHedges bounds backup attempts per request. Default 1.
	MaxHedges int `json:"max_hedges,omitempty"`
}

func (h HedgePolicy) withDefaults() HedgePolicy {
	if h.Quantile == 0 {
		h.Quantile = 0.95
	}
	if h.MinObs == 0 {
		h.MinObs = 16
	}
	if h.MaxHedges == 0 {
		h.MaxHedges = 1
	}
	return h
}

// Validate checks the policy's shape.
func (h *HedgePolicy) Validate() error {
	if h.Quantile < 0 || h.Quantile > 1 || math.IsNaN(h.Quantile) {
		return fmt.Errorf("resilience: hedge quantile %v outside [0, 1]", h.Quantile)
	}
	if h.MinObs < 0 {
		return fmt.Errorf("resilience: negative hedge warmup %d", h.MinObs)
	}
	if h.MaxHedges < 0 {
		return fmt.Errorf("resilience: negative hedge cap %d", h.MaxHedges)
	}
	return nil
}

// ShedPolicy is admission control: a per-class concurrency ceiling scaled by
// the Up-node count, a bounded FIFO queue for overflow, and load shedding
// past that. Classes at the trace's highest priority (the rt tier) are
// exempt — graceful degradation sheds best-effort work first, never rt.
type ShedPolicy struct {
	// PerNode is the per-class live-request ceiling per Up node. Default 8.
	PerNode int `json:"per_node,omitempty"`
	// Queue is the per-class admission-queue capacity; arrivals past it are
	// shed. Default 0 (shed immediately at the ceiling).
	Queue int `json:"queue,omitempty"`
}

func (p ShedPolicy) withDefaults() ShedPolicy {
	if p.PerNode == 0 {
		p.PerNode = 8
	}
	return p
}

// Validate checks the policy's shape: an armed shedder with a non-positive
// ceiling would shed every best-effort arrival.
func (p *ShedPolicy) Validate() error {
	if p.PerNode < 0 {
		return fmt.Errorf("resilience: negative shed ceiling %d", p.PerNode)
	}
	if p.Queue < 0 {
		return fmt.Errorf("resilience: negative admission queue %d", p.Queue)
	}
	return nil
}
