package rf

import "math"

// Deterministic hash-based noise primitives. They give O(1) random access
// to reproducible noise values at arbitrary time indices, which keeps the
// channel model stateless for short-term noise (no per-sample caches) and
// bit-identical across runs for a given seed.

// splitmix64 is the SplitMix64 finalizer: a high-quality 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashUniform maps (seed, stream, index) to a uniform value in (0, 1).
func hashUniform(seed, stream uint64, index int64) float64 {
	h := splitmix64(seed ^ splitmix64(stream^splitmix64(uint64(index))))
	// Use the top 53 bits for a uniform double, avoiding exact 0.
	return (float64(h>>11) + 0.5) / (1 << 53)
}

// hashNormalMixed is hashNormal with the index already mixed:
// hashNormalMixed(seed, stream, splitmix64(uint64(index))) equals
// hashNormal(seed, stream, index) bit for bit. A caller drawing many
// streams at one index mixes it once.
func hashNormalMixed(seed, stream, mixed uint64) float64 {
	h1 := splitmix64(seed ^ splitmix64(stream^mixed))
	h2 := splitmix64(seed ^ splitmix64(stream^0x6a09e667f3bcc909^mixed))
	u1 := (float64(h1>>11) + 0.5) / (1 << 53)
	u2 := (float64(h2>>11) + 0.5) / (1 << 53)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// hashNormal maps (seed, stream, index) to a standard normal value using
// the Box-Muller transform on two decorrelated uniforms.
func hashNormal(seed, stream uint64, index int64) float64 {
	u1 := hashUniform(seed, stream, index)
	u2 := hashUniform(seed, stream^0x6a09e667f3bcc909, index)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// valueNoise returns a smooth stationary noise value at continuous
// position x, built by cubic-smoothstep interpolation between unit normal
// lattice values. Correlation decays over ~1 lattice unit. The marginal
// variance ripples between 0.5 and 1.0 across a cell; varNorm compensates
// on average.
func valueNoise(seed, stream uint64, x float64) float64 {
	k := int64(math.Floor(x))
	u := x - float64(k)
	a := hashNormal(seed, stream, k)
	b := hashNormal(seed, stream, k+1)
	w := u * u * (3 - 2*u) // smoothstep
	v := a*(1-w) + b*w
	return v * varNormValueNoise
}

// varNormValueNoise rescales value noise to unit average variance:
// the average over u of (1-w)² + w² with w = smoothstep(u) is 26/35.
var varNormValueNoise = 1 / math.Sqrt(26.0/35.0)
