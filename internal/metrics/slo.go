package metrics

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/sim"
	"repro/internal/trace"
)

// sketchSubBits is the number of linear sub-buckets per power-of-two octave
// of the quantile sketch (32 sub-buckets bound the relative error of a
// reported quantile by 1/32 ≈ 3%).
const sketchSubBits = 5

// sketchBuckets is the fixed bucket count: 64 octaves cover every positive
// int64 duration, each split into 2^sketchSubBits linear sub-buckets.
const sketchBuckets = 64 << sketchSubBits

// Sketch is a deterministic fixed-size quantile sketch over durations: an
// HDR-style histogram whose bucket index is computed with pure integer
// arithmetic (octave = position of the leading one bit, then linear
// sub-buckets), so Add and Quantile involve no floating point and the
// reported quantiles are byte-identical regardless of platform, insertion
// order, or how many worker goroutines ran the surrounding experiment grid.
// Memory is O(1): the bucket array never grows, no samples are retained.
type Sketch struct {
	counts   [sketchBuckets]uint64
	n        uint64
	min, max sim.Time
}

// bucketOf maps a positive duration to its bucket index.
func bucketOf(v sim.Time) int {
	u := uint64(v)
	e := bits.Len64(u) - 1 // octave: 0..63
	if e <= sketchSubBits {
		// Small values are exact: the low octaves have more sub-buckets
		// than distinct values.
		return int(u)
	}
	sub := (u >> (uint(e) - sketchSubBits)) & ((1 << sketchSubBits) - 1)
	return e<<sketchSubBits + int(sub)
}

// bucketUpper returns the largest duration mapping to bucket i (the sketch
// reports quantiles as this conservative upper bound). The top octave's
// upper bounds exceed int64 — the last bucket's nominal upper is 2^64-1 —
// so they saturate at the largest representable duration instead of
// wrapping to a negative sim.Time.
func bucketUpper(i int) sim.Time {
	if i < 2<<sketchSubBits {
		// Exact region (see bucketOf): bucket i holds exactly the value i.
		return sim.Time(i)
	}
	e := i >> sketchSubBits
	sub := uint64(i & ((1 << sketchSubBits) - 1))
	lower := (1<<sketchSubBits | sub) << (uint(e) - sketchSubBits)
	width := uint64(1) << (uint(e) - sketchSubBits)
	upper := lower + width - 1
	if upper < lower || upper > math.MaxInt64 {
		return sim.Time(math.MaxInt64)
	}
	return sim.Time(upper)
}

// Add records one duration. Non-positive durations count as zero.
func (s *Sketch) Add(v sim.Time) {
	if v < 0 {
		v = 0
	}
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.counts[bucketOf(v)]++
	s.n++
}

// N returns the number of recorded durations.
func (s *Sketch) N() uint64 { return s.n }

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) of the
// recorded durations, within one sub-bucket (≈3% relative error), clamped to
// the exact observed minimum and maximum. With no samples it returns 0.
func (s *Sketch) Quantile(q float64) sim.Time {
	if s.n == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	// rank = ceil(q * n), in [1, n]. The explicit float64 rounds the
	// product, so no GOARCH fuses it into the multiply-subtract that
	// converting a value >= 2^63 to uint64 takes.
	rank := uint64(float64(q * float64(s.n)))
	if float64(rank) < q*float64(s.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > s.n {
		rank = s.n
	}
	var cum uint64
	for i := 0; i < sketchBuckets; i++ {
		cum += s.counts[i]
		if cum >= rank {
			v := bucketUpper(i)
			if v > s.max {
				v = s.max
			}
			if v < s.min {
				v = s.min
			}
			return v
		}
	}
	return s.max
}

// SinceQuantile returns an upper bound for the q-quantile of the durations
// recorded after prev was snapshotted: the quantile of the bucket-wise count
// difference s - prev. prev must be an earlier snapshot of the same sketch
// (every bucket count monotonically non-decreasing), which makes the
// difference itself a valid histogram. The elastic cluster's autoscaler uses
// it for rolling-window tail latency without retaining samples. Bounds come
// from bucket uppers only (the exact window min/max are not retained),
// clamped to the sketch-wide max, and an empty window returns 0. A window
// with no new samples — including a stale or swapped snapshot where prev is
// not older than s — also returns 0 rather than underflowing the count
// difference.
func (s *Sketch) SinceQuantile(prev *Sketch, q float64) sim.Time {
	if s.n <= prev.n || q <= 0 {
		return 0
	}
	n := s.n - prev.n
	if q > 1 {
		q = 1
	}
	// rank = ceil(q * n), in [1, n], as in Quantile.
	rank := uint64(float64(q * float64(n)))
	if float64(rank) < q*float64(n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var cum uint64
	for i := 0; i < sketchBuckets; i++ {
		cum += s.counts[i] - prev.counts[i]
		if cum >= rank {
			if v := bucketUpper(i); v < s.max {
				return v
			}
			// The window's exact max is not retained; the whole sketch's
			// max still upper-bounds every sample in it.
			return s.max
		}
	}
	return s.max
}

// Merge folds another sketch into s (bucket-wise addition, exact min/max).
func (s *Sketch) Merge(o *Sketch) {
	if o.n == 0 {
		return
	}
	if s.n == 0 || o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	for i := range s.counts {
		s.counts[i] += o.counts[i]
	}
	s.n += o.n
}

// ClassSLO is the streaming service-level accounting of one arrival class:
// admission and completion counters, deadline misses, and online quantile
// sketches of queueing (arrival to first thread-block issue) and completion
// (arrival to run completion) latency.
type ClassSLO struct {
	Name     string
	Deadline sim.Time
	// Admitted counts dispatch attempts admitted; Completed counts attempts
	// whose run finished; Missed counts completed attempts that exceeded
	// the class deadline; Lost counts attempts destroyed by a node failure
	// before completing (the elastic cluster re-dispatches the request as a
	// fresh admission). Admitted - Completed - Lost is the in-flight
	// population.
	Admitted, Completed, Missed, Lost int
	// The request-resilience layer adds four attempt outcomes and two
	// request outcomes. TimedOut counts attempts abandoned at their deadline;
	// Canceled counts hedge losers cancelled when the other attempt won (an
	// abandoned attempt leaves the live population the moment it is counted,
	// even if its work drains on the node as a ghost); Retried and Hedged
	// count attempts that were re-dispatches and hedges, attributed to the
	// node that received them (both are subsets of Admitted). Dropped counts
	// requests that ran out of retries or budget, attributed to the node of
	// the final failing attempt; Shed counts requests refused by admission
	// control before any dispatch — a fleet-level outcome, so per-node
	// accounts always carry Shed == 0 and only the cluster rollup fills it.
	TimedOut, Canceled, Retried, Hedged, Dropped, Shed int
	// Wait sketches the queueing latency, Latency the completion latency.
	Wait, Latency Sketch
}

// MissRate returns the fraction of completed requests that missed the class
// deadline (0 when the class has no deadline or nothing completed).
func (c *ClassSLO) MissRate() float64 {
	if c.Completed == 0 || c.Deadline <= 0 {
		return 0
	}
	return float64(c.Missed) / float64(c.Completed)
}

// InFlight returns the live attempt population: admitted attempts not yet
// completed, lost to a node failure, or abandoned by the resilience layer
// (timed out or cancelled).
func (c *ClassSLO) InFlight() int {
	return c.Admitted - c.Completed - c.Lost - c.TimedOut - c.Canceled
}

// SLOAccount aggregates per-class SLO accounting for an open-system run.
// All updates are O(1) and allocation-free; the account never retains
// samples, so its footprint is independent of the arrival count.
type SLOAccount struct {
	Classes []ClassSLO
}

// NewSLOAccount builds an account with one ClassSLO per arrival class.
func NewSLOAccount(classes []trace.ArrivalClass) *SLOAccount {
	a := &SLOAccount{Classes: make([]ClassSLO, len(classes))}
	for i, c := range classes {
		a.Classes[i].Name = c.Name
		a.Classes[i].Deadline = c.Deadline
	}
	return a
}

// Admit records the admission of one request of the given class.
func (a *SLOAccount) Admit(class int) { a.Classes[class].Admitted++ }

// Lose records one admitted attempt of the given class destroyed by a node
// failure before it completed.
func (a *SLOAccount) Lose(class int) { a.Classes[class].Lost++ }

// TimeOut records one live attempt of the given class abandoned at its
// per-attempt deadline.
func (a *SLOAccount) TimeOut(class int) { a.Classes[class].TimedOut++ }

// CancelAttempt records one live attempt of the given class cancelled
// because the other hedge attempt won.
func (a *SLOAccount) CancelAttempt(class int) { a.Classes[class].Canceled++ }

// Retry marks one admitted attempt of the given class as a retry
// re-dispatch (call alongside Admit on the node that received it).
func (a *SLOAccount) Retry(class int) { a.Classes[class].Retried++ }

// Hedge marks one admitted attempt of the given class as a hedge (call
// alongside Admit on the node that received it).
func (a *SLOAccount) Hedge(class int) { a.Classes[class].Hedged++ }

// Drop records one request of the given class dropped after exhausting its
// retries or retry budget, attributed to the final failing attempt's node.
func (a *SLOAccount) Drop(class int) { a.Classes[class].Dropped++ }

// Issued records a request's queueing latency: its first thread block
// reached an SM wait after the request's arrival.
func (a *SLOAccount) Issued(class int, wait sim.Time) { a.Classes[class].Wait.Add(wait) }

// Complete records a completed request's completion latency and reports
// whether it missed the class deadline.
func (a *SLOAccount) Complete(class int, latency sim.Time) (missed bool) {
	c := &a.Classes[class]
	c.Completed++
	c.Latency.Add(latency)
	if c.Deadline > 0 && latency > c.Deadline {
		c.Missed++
		return true
	}
	return false
}

// Merge folds another account into a, class by class: counters add and the
// latency sketches merge bucket-wise. The cluster layer uses it to roll
// per-node SLO accounts up into one fleet-wide account. Both accounts must
// have been built from the same class table (same names, same order).
func (a *SLOAccount) Merge(o *SLOAccount) error {
	if len(a.Classes) != len(o.Classes) {
		return fmt.Errorf("metrics: merging accounts with %d and %d classes", len(a.Classes), len(o.Classes))
	}
	for i := range a.Classes {
		c, oc := &a.Classes[i], &o.Classes[i]
		if c.Name != oc.Name || c.Deadline != oc.Deadline {
			return fmt.Errorf("metrics: merging mismatched class %d: %s/%v vs %s/%v",
				i, c.Name, c.Deadline, oc.Name, oc.Deadline)
		}
		c.Admitted += oc.Admitted
		c.Completed += oc.Completed
		c.Missed += oc.Missed
		c.Lost += oc.Lost
		c.TimedOut += oc.TimedOut
		c.Canceled += oc.Canceled
		c.Retried += oc.Retried
		c.Hedged += oc.Hedged
		c.Dropped += oc.Dropped
		c.Shed += oc.Shed
		c.Wait.Merge(&oc.Wait)
		c.Latency.Merge(&oc.Latency)
	}
	return nil
}

// Totals sums admitted, completed and missed over all classes.
func (a *SLOAccount) Totals() (admitted, completed, missed int) {
	for i := range a.Classes {
		admitted += a.Classes[i].Admitted
		completed += a.Classes[i].Completed
		missed += a.Classes[i].Missed
	}
	return
}

// LostTotal sums attempts lost to node failures over all classes.
func (a *SLOAccount) LostTotal() (lost int) {
	for i := range a.Classes {
		lost += a.Classes[i].Lost
	}
	return
}

// Goodput returns completed work per simulated second that met its SLO:
// completed requests of deadline classes that made their deadline, plus all
// completed requests of classes without a deadline.
func (a *SLOAccount) Goodput(end sim.Time) float64 {
	if end <= 0 {
		return 0
	}
	good := 0
	for i := range a.Classes {
		good += a.Classes[i].Completed - a.Classes[i].Missed
	}
	return float64(good) / end.Seconds()
}

// Validate checks internal consistency (used by property tests): completion
// never exceeds admission and misses never exceed completions.
func (a *SLOAccount) Validate() error {
	for i := range a.Classes {
		c := &a.Classes[i]
		if c.Lost < 0 || c.TimedOut < 0 || c.Canceled < 0 || c.Retried < 0 ||
			c.Hedged < 0 || c.Dropped < 0 || c.Shed < 0 {
			return fmt.Errorf("metrics: class %s has a negative lifecycle counter", c.Name)
		}
		if c.Completed+c.Lost+c.TimedOut+c.Canceled > c.Admitted {
			return fmt.Errorf("metrics: class %s completed %d + lost %d + timed out %d + canceled %d > admitted %d",
				c.Name, c.Completed, c.Lost, c.TimedOut, c.Canceled, c.Admitted)
		}
		if c.Retried+c.Hedged > c.Admitted {
			return fmt.Errorf("metrics: class %s retried %d + hedged %d > admitted %d",
				c.Name, c.Retried, c.Hedged, c.Admitted)
		}
		if c.Missed > c.Completed {
			return fmt.Errorf("metrics: class %s missed %d > completed %d", c.Name, c.Missed, c.Completed)
		}
		if c.Wait.N() > uint64(c.Admitted) || c.Latency.N() != uint64(c.Completed) {
			return fmt.Errorf("metrics: class %s sketch counts inconsistent (wait %d, latency %d, admitted %d, completed %d)",
				c.Name, c.Wait.N(), c.Latency.N(), c.Admitted, c.Completed)
		}
	}
	return nil
}
