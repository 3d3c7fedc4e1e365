// Package seedderive defines the one sanctioned way to derive child RNG
// seeds from a caller-supplied base seed. Every randomized phase in the
// simulator draws from an explicit *rand.Rand seeded through this package
// (paper §2: all algorithms are Las Vegas randomized, and DESIGN.md §5/§7
// demand that identical seeds replay identical executions).
//
// Determinism obligations: Derive is a pure function of (base, phase, idx)
// — no global state, no clock — so a run is replayable from its base seed
// alone. The phase string and index are mixed through independent 64-bit
// avalanche steps, so distinct phases (and distinct indices within a
// phase) get statistically unrelated child seeds even when the base seeds
// or indices are small consecutive integers. Ad-hoc arithmetic on seeds
// (`seed + round*7919` and friends) is banned by the distlint `seedderive`
// analyzer precisely because such derivations collide across phases:
// phase A at index 7919 and phase B at index 0 would share a stream.
package seedderive

// Derive returns the child seed for draw idx of the named phase under the
// given base seed. Calls with distinct (phase, idx) pairs yield unrelated
// seeds; equal arguments always yield the same seed.
func Derive(base int64, phase string, idx int64) int64 {
	return PhaseOf(phase).Derive(base, idx)
}

// Phase is a phase name hashed once, for callers that derive from the same
// phase in a hot loop (fault decisions run one per message per round).
// PhaseOf(name).Derive(base, idx) equals Derive(base, name, idx).
type Phase uint64

// PhaseOf hashes a phase name.
func PhaseOf(name string) Phase { return Phase(fnv1a(name)) }

// Derive returns the child seed for draw idx of phase p under base.
func (p Phase) Derive(base int64, idx int64) int64 {
	x := uint64(base)
	x ^= uint64(p)
	x = mix64(x)
	x += uint64(idx) * golden // golden-ratio increment keeps consecutive idx far apart
	return int64(mix64(x))
}

// Key is a phase keyed to a base seed: Derive split after its first
// avalanche, for callers that draw many indices under one (phase, base)
// pair. p.Key(base).At(idx) equals p.Derive(base, idx).
type Key uint64

// Key returns p keyed to base.
func (p Phase) Key(base int64) Key { return Key(mix64(uint64(base) ^ uint64(p))) }

// At returns the child seed for draw idx under the key: one SplitMix64
// finish.
func (k Key) At(idx int64) int64 { return int64(mix64(uint64(k) + uint64(idx)*golden)) }

// golden is the 64-bit golden-ratio constant of SplitMix64's increment.
const golden = 0x9E3779B97F4A7C15

// fnv1a hashes the phase name (64-bit FNV-1a).
func fnv1a(s string) uint64 {
	h := uint64(0xCBF29CE484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001B3
	}
	return h
}

// mix64 is the SplitMix64 finalizer: a bijective avalanche on 64 bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
