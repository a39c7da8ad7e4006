package hrw

import (
	"fmt"
	"math"
)

// DeltaForOwnFraction returns the weight that, assigned to the "own" class
// while the competing class keeps weight 0, routes approximately fraction f
// of keys to the own class in a two-class placer.
//
// With class hashes u_own, u_victim uniform on [0,1) and the own class
// winning when u_own - w > u_victim, the own fraction is
//
//	f = (1-w)^2 / 2          for w in [0, 1]   (f <= 1/2)
//	f = 1 - (1+w)^2 / 2      for w in [-1, 0]  (f >= 1/2)
//
// so w = 1 - sqrt(2f) when f <= 1/2 and w = sqrt(2(1-f)) - 1 otherwise.
// f must lie in [0, 1].
func DeltaForOwnFraction(f float64) (float64, error) {
	if f < 0 || f > 1 || math.IsNaN(f) {
		return 0, fmt.Errorf("hrw: fraction %v outside [0,1]", f)
	}
	if f <= 0.5 {
		return 1 - math.Sqrt(2*f), nil
	}
	return math.Sqrt(2*(1-f)) - 1, nil
}

// OwnFractionForDelta is the inverse of DeltaForOwnFraction: the expected
// fraction of keys routed to the own class when its weight exceeds the
// victim class's weight by d. d is clamped to [-1, 1].
func OwnFractionForDelta(d float64) float64 {
	if d > 1 {
		d = 1
	}
	if d < -1 {
		d = -1
	}
	if d >= 0 {
		return (1 - d) * (1 - d) / 2
	}
	return 1 - (1+d)*(1+d)/2
}
