package decay

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// TestLdexpCoinBitIdentity pins the admissibility of math.Ldexp for the
// per-step power-of-two coins (Decay here, the MIS degree estimate, the
// broadcast background Decay and the baseline floods): scaling by 2^-k is
// exact whenever the result is normal and correctly rounded when it is
// subnormal, exactly like dividing by the exact power math.Pow(2, k), so
// swapping the two never moves a coin. The protocols reach k ≤ ⌈log₂ n⌉+1
// (at most 33 for int32 node ids); the sweep covers every k up to 1023,
// past which math.Pow(2, k) overflows to +Inf, with p drawn uniformly over
// the normal float64 bit patterns and over (0, 1).
func TestLdexpCoinBitIdentity(t *testing.T) {
	rng := xrand.New(17)
	const minNormal, maxFinite = 0x0010000000000000, 0x7FEFFFFFFFFFFFFF
	for k := 0; k <= 1023; k++ {
		for i := 0; i < 200; i++ {
			p := math.Float64frombits(minNormal + rng.Uint64()%(maxFinite-minNormal+1))
			if i%2 == 1 {
				p = math.Nextafter(rng.Float64(), 1) // protocol coins: p ∈ (0, 1]
			}
			got, want := math.Ldexp(p, -k), p/math.Pow(2, float64(k))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Ldexp(%v, -%d) = %x, p/Pow(2, k) = %x", p, k, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
	// Every exponent down to the smallest subnormal, 2^-1074.
	for k := 0; k <= 1074; k++ {
		got, want := math.Ldexp(1, -k), math.Pow(2, -float64(k))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Ldexp(1, -%d) = %x, Pow(2, -k) = %x", k, math.Float64bits(got), math.Float64bits(want))
		}
	}
}
