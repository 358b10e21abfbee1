package sim

// SplitMix64 is the simulator's seeded stream (Steele, Lea and Flood, "Fast
// splittable pseudorandom number generators", OOPSLA 2014): each draw adds a
// fixed odd increment to 64 bits of state and mixes the sum. It allocates
// nothing and computes the same on every platform, so a stream is a pure
// function of its seed. Code that wants math/rand's distributions keeps a
// seeded *rand.Rand instead.
type SplitMix64 struct{ state uint64 }

// NewSplitMix64 returns the stream whose state starts at seed.
func NewSplitMix64(seed uint64) SplitMix64 { return SplitMix64{state: seed} }

// Next returns the stream's next 64-bit draw.
func (r *SplitMix64) Next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a draw in [0, n): Next reduced modulo n, which must be
// positive.
func (r *SplitMix64) Intn(n int) int { return int(r.Next() % uint64(n)) }

// Float returns a uniform draw in [0, 1) from Next's top 53 bits.
func (r *SplitMix64) Float() float64 { return float64(r.Next()>>11) / (1 << 53) }
