package util

// Rand is a small deterministic pseudo-random generator (xorshift64*) used
// by workload generators and randomized tests. It is not safe for concurrent
// use; give each goroutine its own instance via Split.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. A zero seed is replaced so
// the generator never gets stuck at the all-zero state.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("util: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// perm returns a pseudo-random permutation of [0, n).
func (r *Rand) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Split derives an independent generator, useful for per-goroutine streams.
func (r *Rand) Split() *Rand {
	return NewRand(r.Uint64() ^ 0xa5a5a5a5a5a5a5a5)
}

// Letters fills a buffer with n pseudo-random lowercase letters and spaces,
// approximating natural-language token lengths (mean word ≈ 5 letters).
func (r *Rand) Letters(n int) string {
	buf := make([]byte, n)
	for i := range buf {
		if r.Intn(6) == 0 {
			buf[i] = ' '
			continue
		}
		buf[i] = byte('a' + r.Intn(26))
	}
	return string(buf)
}
