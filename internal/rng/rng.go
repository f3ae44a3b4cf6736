// Package rng provides small deterministic pseudo-random sources used
// throughout the simulator. All randomness in the project flows through
// explicitly seeded Sources or stateless hashes so that a simulation is a
// pure function of its configuration and seed.
package rng

// Source is a splitmix64-based PRNG. It is cheap, has good statistical
// quality for simulation purposes, and is fully deterministic.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float in [0, 1).
func (s *Source) Float64() float64 {
	return float64(float64(s.Uint64()>>11) / (1 << 53))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Shuffle permutes the first n elements using the Fisher-Yates algorithm,
// calling swap(i, j) for each exchange.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// HashStart is Hash64's state before any value is mixed in.
const HashStart uint64 = 0x9e3779b97f4a7c15

// Mix folds v into the hash state h: one round of Hash64. Hash64(a, b) is
// Finish(Mix(Mix(HashStart, a), b)), so a caller that hashes many tuples
// sharing a prefix can mix the prefix once and keep the state.
func Mix(h, v uint64) uint64 {
	h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// Finish applies Hash64's finalizer to the hash state h.
func Finish(h uint64) uint64 {
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Hash64 mixes an arbitrary number of 64-bit values into a single
// well-distributed 64-bit hash. Per-thread-block jitter hashes (seed,
// launch id, thread-block index) through its Mix and Finish halves.
func Hash64(vals ...uint64) uint64 {
	h := HashStart
	for _, v := range vals {
		h = Mix(h, v)
	}
	return Finish(h)
}

// Jitter maps the hash h to a multiplicative factor uniform in
// [1-frac, 1+frac]; frac must be below 1, and a frac of 0 (or less) yields
// exactly 1. The conversion rounds the product, so no GOARCH fuses the sum
// into a multiply-add and the factor is the same on every machine.
func Jitter(frac float64, h uint64) float64 {
	if frac <= 0 {
		return 1
	}
	u := float64(h>>11) / (1 << 53) // [0,1)
	return 1 - frac + float64(2*frac*u)
}

// SeedFrom derives a child seed from a base seed and the coordinates of a
// job in some grid (workload size, index within size, replica number, ...).
// The derivation is a pure hash, so concurrent jobs get the same seeds in
// any execution order. The result is never zero, making it safe for fields
// where zero means "unset" (e.g. workload.Spec.Seed).
func SeedFrom(base uint64, coords ...uint64) uint64 {
	h := Mix(HashStart, base)
	for _, v := range coords {
		h = Mix(h, v)
	}
	h = Finish(h)
	if h == 0 {
		h = 0x9e3779b97f4a7c15
	}
	return h
}
