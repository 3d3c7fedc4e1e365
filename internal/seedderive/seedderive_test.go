package seedderive

import (
	"math/rand"
	"testing"
)

// TestDeterministic pins that Derive is a pure function: equal inputs give
// equal outputs across calls (the replayability contract).
func TestDeterministic(t *testing.T) {
	for _, base := range []int64{0, 1, -1, 7, 1 << 40} {
		for _, phase := range []string{"", "mpx-round", "cluster-cover"} {
			for _, idx := range []int64{0, 1, 2, 100} {
				a := Derive(base, phase, idx)
				b := Derive(base, phase, idx)
				if a != b {
					t.Fatalf("Derive(%d,%q,%d) not stable: %d vs %d", base, phase, idx, a, b)
				}
			}
		}
	}
}

// TestNoCollisions checks the property the ad-hoc arithmetic lacked: child
// seeds across nearby (base, phase, idx) combinations never coincide.
func TestNoCollisions(t *testing.T) {
	seen := make(map[int64]string)
	phases := []string{"mpx-round", "cluster-cover", "level-up", "level-down", "mwu-solve"}
	for base := int64(0); base < 8; base++ {
		for _, ph := range phases {
			for idx := int64(0); idx < 64; idx++ {
				s := Derive(base, ph, idx)
				key := string(rune(base)) + "/" + ph + "/" + string(rune(idx))
				if prev, ok := seen[s]; ok {
					t.Fatalf("collision: %s and %s both derive %d", prev, key, s)
				}
				seen[s] = key
			}
		}
	}
}

// TestPhaseSeparation checks that the same index under different phases
// yields different seeds — the cross-phase collision the old
// seed+idx*prime scheme allowed.
func TestPhaseSeparation(t *testing.T) {
	for idx := int64(0); idx < 32; idx++ {
		a := Derive(5, "phase-a", idx)
		b := Derive(5, "phase-b", idx)
		if a == b {
			t.Fatalf("phases not separated at idx %d: both %d", idx, a)
		}
	}
}

// TestPhaseMatchesDerive pins that a pre-hashed phase derives exactly what
// Derive does, over random bases, names and indices (fault plans switched
// to pre-hashed phases with their decisions unchanged).
func TestPhaseMatchesDerive(t *testing.T) {
	rng := rand.New(rand.NewSource(Derive(0x5EED, "phase-test", 0)))
	for i := 0; i < 2000; i++ {
		name := make([]byte, rng.Intn(24))
		for j := range name {
			name[j] = byte(rng.Intn(256))
		}
		base, idx := rng.Int63()-rng.Int63(), rng.Int63()-rng.Int63()
		if got, want := PhaseOf(string(name)).Derive(base, idx), Derive(base, string(name), idx); got != want {
			t.Fatalf("PhaseOf(%q).Derive(%d, %d) = %d, Derive = %d", name, base, idx, got, want)
		}
	}
}

// TestKeyAtMatchesDerive pins that a keyed phase derives exactly what
// Derive does, over random phases, bases and indices (fault links key
// each round once and finish one variate per send).
func TestKeyAtMatchesDerive(t *testing.T) {
	rng := rand.New(rand.NewSource(Derive(0x5EED, "key-test", 0)))
	for i := 0; i < 2000; i++ {
		p := Phase(rng.Uint64())
		base, idx := rng.Int63()-rng.Int63(), rng.Int63()-rng.Int63()
		if got, want := p.Key(base).At(idx), p.Derive(base, idx); got != want {
			t.Fatalf("Phase(%#x).Key(%d).At(%d) = %d, Derive = %d", uint64(p), base, idx, got, want)
		}
	}
}
