package sim

// RNG is a SplitMix64 pseudo-random generator. It is tiny, fast, and — unlike
// math/rand's global state — trivially reproducible, which the simulator
// relies on for deterministic experiment output.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// golden is SplitMix64's state increment, 2^64 divided by the golden
// ratio.
const golden = 0x9e3779b97f4a7c15

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += golden
	return mix(r.state)
}

// Draw returns draw i of a generator seeded with seed: the value the
// (i+1)-th Uint64 call of NewRNG(seed) returns. SplitMix64's state after
// i+1 calls is seed + (i+1)·golden, so any draw is a pure function of
// its index, and a looped program can compute pass i's draw without
// holding a generator.
func Draw(seed, i uint64) uint64 { return mix(seed + (i+1)*golden) }

// mix is SplitMix64's output function: it scrambles a state into 64
// pseudo-random bits.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a pseudo-random uint64 in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
