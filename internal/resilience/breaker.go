package resilience

import (
	"fmt"

	"repro/internal/sim"
)

// BreakerPolicy parameterizes the per-node circuit breaker: trip when the
// rolling error rate (timeouts and losses over completions) crosses
// ErrorRate with at least MinVolume observations in the window, hold open
// for Cooldown, then half-open and let Probes requests through — all
// succeeding closes the breaker, any failure re-trips it.
type BreakerPolicy struct {
	// Window is the rolling observation window. Default 500µs.
	Window sim.Time `json:"window,omitempty"`
	// ErrorRate is the failure fraction that trips the breaker.
	// Default 0.5.
	ErrorRate float64 `json:"error_rate,omitempty"`
	// MinVolume is the minimum window observations before tripping.
	// Default 8.
	MinVolume int `json:"min_volume,omitempty"`
	// Cooldown is how long a tripped breaker stays open. Default Window.
	Cooldown sim.Time `json:"cooldown,omitempty"`
	// Probes is the half-open trial quota. Default 1.
	Probes int `json:"probes,omitempty"`
}

func (p BreakerPolicy) withDefaults() BreakerPolicy {
	if p.Window <= 0 {
		p.Window = 500 * sim.Microsecond
	}
	if p.ErrorRate == 0 {
		p.ErrorRate = 0.5
	}
	if p.MinVolume == 0 {
		p.MinVolume = 8
	}
	if p.Cooldown <= 0 {
		p.Cooldown = p.Window
	}
	if p.Probes == 0 {
		p.Probes = 1
	}
	return p
}

// Validate checks the policy's shape.
func (p *BreakerPolicy) Validate() error {
	if p.Window < 0 {
		return fmt.Errorf("resilience: negative breaker window %v", p.Window)
	}
	if p.ErrorRate < 0 || p.ErrorRate > 1 {
		return fmt.Errorf("resilience: breaker error rate %v outside [0, 1]", p.ErrorRate)
	}
	if p.MinVolume < 0 {
		return fmt.Errorf("resilience: negative breaker volume %d", p.MinVolume)
	}
	if p.Cooldown < 0 {
		return fmt.Errorf("resilience: negative breaker cooldown %v", p.Cooldown)
	}
	if p.Probes < 0 {
		return fmt.Errorf("resilience: negative breaker probes %d", p.Probes)
	}
	return nil
}

// BreakerState is a breaker's position in the closed → open → half-open
// cycle.
type BreakerState int

// Breaker states.
const (
	// BreakerClosed passes traffic and watches the error window.
	BreakerClosed BreakerState = iota
	// BreakerOpen masks the node from dispatch until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen lets a probe quota through to test recovery.
	BreakerHalfOpen
)

// String names the state for reports.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Breaker is one node slot's circuit breaker. The rolling window is two
// half-Window buckets rotated lazily on access — O(1) state, no samples
// retained, the same scheme the SLO sketches use for rolling quantiles. All
// methods are allocation-free.
type Breaker struct {
	pol   BreakerPolicy
	state BreakerState

	winStart         sim.Time // current bucket's start
	curOK, curErr    int
	prevOK, prevErr  int
	trippedAt        sim.Time
	probesOut, trips int
}

// NewBreaker builds a closed breaker with the defaulted policy.
func NewBreaker(pol BreakerPolicy) Breaker {
	return Breaker{pol: pol.withDefaults()}
}

// rotate advances the two-bucket window to cover now.
func (b *Breaker) rotate(now sim.Time) {
	half := b.pol.Window / 2
	if half <= 0 {
		half = 1
	}
	for now-b.winStart >= half {
		b.prevOK, b.prevErr = b.curOK, b.curErr
		b.curOK, b.curErr = 0, 0
		b.winStart += half
		if now-b.winStart >= 2*half {
			// A long quiet gap clears the whole window at once.
			b.prevOK, b.prevErr = 0, 0
			b.winStart = now
			break
		}
	}
}

// State returns the breaker's position after advancing time to now (an open
// breaker whose cooldown elapsed reports half-open).
func (b *Breaker) State(now sim.Time) BreakerState {
	if b.state == BreakerOpen && now-b.trippedAt >= b.pol.Cooldown {
		b.state = BreakerHalfOpen
		b.probesOut = 0
	}
	return b.state
}

// Allow reports whether the node may receive a dispatch at now: closed, or
// half-open with probe quota left. It does not consume the quota — call
// Dispatched on the chosen node only.
func (b *Breaker) Allow(now sim.Time) bool {
	switch b.State(now) {
	case BreakerClosed:
		return true
	case BreakerHalfOpen:
		return b.probesOut < b.pol.Probes
	default:
		return false
	}
}

// Dispatched consumes a half-open probe slot when one is being trialed.
func (b *Breaker) Dispatched(now sim.Time) {
	if b.State(now) == BreakerHalfOpen {
		b.probesOut++
	}
}

// Record feeds one attempt outcome: a completion (ok) or a timeout/loss. In
// half-open, a success closes the breaker and clears the window; a failure
// re-trips it. Closed, the rolling window is checked against the trip
// threshold.
func (b *Breaker) Record(now sim.Time, ok bool) {
	switch b.State(now) {
	case BreakerHalfOpen:
		if ok {
			b.state = BreakerClosed
			b.curOK, b.curErr, b.prevOK, b.prevErr = 0, 0, 0, 0
			b.winStart = now
			return
		}
		b.trip(now)
	case BreakerOpen:
		// Straggler outcome from before the trip; the window restarts on
		// recovery, so it is ignored.
	default:
		b.rotate(now)
		if ok {
			b.curOK++
		} else {
			b.curErr++
		}
		errs := b.curErr + b.prevErr
		vol := errs + b.curOK + b.prevOK
		if vol >= b.pol.MinVolume && float64(errs) > b.pol.ErrorRate*float64(vol) {
			b.trip(now)
		}
	}
}

func (b *Breaker) trip(now sim.Time) {
	b.state = BreakerOpen
	b.trippedAt = now
	b.trips++
}

// Reset returns the breaker to closed with an empty window — used when a
// killed node restarts as a fresh incarnation.
func (b *Breaker) Reset(now sim.Time) {
	b.state = BreakerClosed
	b.curOK, b.curErr, b.prevOK, b.prevErr = 0, 0, 0, 0
	b.probesOut = 0
	b.winStart = now
}

// Trips returns how many times the breaker has opened.
func (b *Breaker) Trips() int { return b.trips }
