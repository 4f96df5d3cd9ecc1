package fairness

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestPartialMatchesDenseMetrics: however a population is split into
// groups, merging the groups' partials yields JainIndex and the
// normalized-share extremes of the whole — including the conventions for
// the empty and the all-zero population.
func TestPartialMatchesDenseMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		agg, w := make([]float64, n), make([]float64, n)
		for j := range agg {
			if rng.Intn(4) > 0 && trial%7 != 0 { // trial%7==0: all-zero population
				agg[j] = rng.Float64() * 10
			}
			w[j] = 0.5 + rng.Float64()*3.5
		}
		var whole Partial
		for lo := 0; lo < n; {
			hi := lo + 1 + rng.Intn(n-lo)
			var part Partial
			zeros := 0
			for j := lo; j < hi; j++ {
				if agg[j] == 0 && rng.Intn(2) == 0 {
					zeros++ // counted in bulk, the way zero-demand jobs are
					continue
				}
				part.Observe(agg[j], w[j])
			}
			part.ObserveZeros(zeros)
			whole.Merge(part)
			lo = hi
		}
		wantMin, wantMax := 0.0, 0.0
		if n > 0 {
			norm := NormalizedShares(agg, w)
			wantMin, wantMax = slices.Min(norm), slices.Max(norm)
		}
		mn, mx := whole.MinMax()
		if whole.Jobs != n || mn != wantMin || mx != wantMax {
			t.Fatalf("trial %d: jobs %d min %v max %v, want %d %v %v", trial, whole.Jobs, mn, mx, n, wantMin, wantMax)
		}
		if got, want := whole.Jain(), JainIndex(agg); math.Abs(got-want) > 1e-12*want {
			t.Fatalf("trial %d: Jain %v from partials, %v dense", trial, got, want)
		}
	}
}
