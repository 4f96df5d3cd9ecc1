package core

import (
	"math"
	"math/rand"
	"testing"
)

// randInstance generates a random instance: m sites with capacities in
// [0.5, 10], n jobs each demanding at 1..m random sites with per-site
// demands in (0, 5].
func randInstance(rng *rand.Rand, n, m int) *Instance {
	in := &Instance{
		SiteCapacity: make([]float64, m),
		Demand:       make([][]float64, n),
	}
	for s := range in.SiteCapacity {
		in.SiteCapacity[s] = 0.5 + rng.Float64()*9.5
	}
	for j := range in.Demand {
		in.Demand[j] = make([]float64, m)
		k := 1 + rng.Intn(m)
		for _, s := range rng.Perm(m)[:k] {
			in.Demand[j][s] = 0.1 + rng.Float64()*4.9
		}
	}
	return in
}

// randWeightedInstance additionally assigns weights in [0.5, 4].
func randWeightedInstance(rng *rand.Rand, n, m int) *Instance {
	in := randInstance(rng, n, m)
	in.Weight = make([]float64, n)
	for j := range in.Weight {
		in.Weight[j] = 0.5 + rng.Float64()*3.5
	}
	return in
}

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s = %g, want %g (tol %g)", what, got, want, tol)
	}
}

func checkAMFInvariants(t *testing.T, in *Instance, a *Allocation) {
	t.Helper()
	scale := in.Scale()
	if err := a.CheckFeasible(1e-6 * scale); err != nil {
		t.Fatalf("infeasible allocation: %v", err)
	}
	if !IsParetoEfficient(a, 1e-5*scale*float64(in.NumJobs()+1)) {
		var tot float64
		for j := range a.Share {
			tot += a.Aggregate(j)
		}
		t.Fatalf("not Pareto efficient: total %g < max %g", tot, MaxTotalAllocation(in))
	}
	if j, bad := AggregateMaxMinViolation(a, 1e-4*scale); bad {
		t.Fatalf("aggregate vector not max-min fair: job %d can be raised (aggregates %v)",
			j, a.Aggregates())
	}
}

// sharingIncentiveInstance is the counterexample exercised throughout the
// tests: job X owns a large private site (capacity 10, demand 0.9) and has
// a small claim on a tiny contested site (capacity 0.2) crowded by two jobs
// that live only there. Under AMF the contested site goes entirely to the
// poor jobs, so X ends below its isolated equal share
// es_X = 0.9 + 0.2/3 ~ 0.9667.
func sharingIncentiveInstance() *Instance {
	return &Instance{
		SiteCapacity: []float64{10, 0.2},
		Demand: [][]float64{
			{0.9, 1}, // job X
			{0, 1},   // job Y
			{0, 1},   // job Z
		},
	}
}

// amfKernel names the AMF kernel the enhanced flag of a test table selects.
func amfKernel(enhanced bool) Kernel {
	if enhanced {
		return KernelEnhanced
	}
	return KernelAMF
}
