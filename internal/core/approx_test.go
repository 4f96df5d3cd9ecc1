package core_test

// The approx-equivalence property tests live in an external test package
// so they can share workload.GenerateLargeGraph with the -largegraph bench
// (the workload package imports core, so an internal test would cycle).

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// approxTrialEps is the epsilon the property sweep certifies: per-job
// aggregates within 1% of the instance scale.
const approxTrialEps = 0.01

func randLargeGraph(rng *rand.Rand, trial int) *core.Instance {
	return workload.GenerateLargeGraph(workload.LargeGraphConfig{
		Jobs:          80 + rng.Intn(120),
		Sites:         12 + rng.Intn(20),
		Degree:        3 + rng.Intn(4),
		CapacityTiers: 2 + rng.Intn(4),
		SiteSkew:      0.4 + rng.Float64(),
		WeightClasses: 1 + rng.Intn(4),
		Seed:          uint64(trial) + 1,
	})
}

// TestApproxEquivalenceWithinEpsilon is the epsilon-bound property test:
// across 200 random single-component large graphs, the approximate path's
// per-job aggregates stay within ApproxEpsilon*Scale of the exact solver,
// for both AMF and Enhanced-AMF with external-weight floors, and the
// reported error bound honors the same budget.
func TestApproxEquivalenceWithinEpsilon(t *testing.T) {
	rng := rand.New(rand.NewSource(2019))
	exact := core.NewSolver()
	approx := &core.Solver{ApproxEpsilon: approxTrialEps, ApproxThreshold: 1}
	for trial := 0; trial < 200; trial++ {
		in := randLargeGraph(rng, trial)
		enhanced := trial%2 == 1
		if enhanced {
			// External weight shifts every EqualShares floor, the
			// Enhanced-AMF regime the scheduler runs in a shard.
			in.ExternalWeight = rng.Float64() * 8
		}
		solve := func(sv *core.Solver) *core.Allocation {
			t.Helper()
			var a *core.Allocation
			var err error
			if enhanced {
				a, err = sv.EnhancedAMF(in)
			} else {
				a, err = sv.AMF(in)
			}
			if err != nil {
				t.Fatalf("trial %d (enhanced=%v): %v", trial, enhanced, err)
			}
			return a
		}
		want := solve(exact)
		got := solve(approx)

		st := approx.LastStats()
		if st.ApproxComponents == 0 {
			t.Fatalf("trial %d: threshold 1 did not route through the approximate path", trial)
		}
		budget := approxTrialEps * in.Scale()
		if st.ApproxErrorBound > budget {
			t.Fatalf("trial %d: reported error bound %g exceeds budget %g", trial, st.ApproxErrorBound, budget)
		}
		for j := 0; j < in.NumJobs(); j++ {
			dev := math.Abs(got.Aggregate(j) - want.Aggregate(j))
			if dev > budget {
				t.Fatalf("trial %d (enhanced=%v): job %d deviates %g > budget %g (exact %g, approx %g)",
					trial, enhanced, j, dev, budget, want.Aggregate(j), got.Aggregate(j))
			}
		}
	}
}

// TestApproxTinyComponents drives the approximate path over components
// with fewer jobs than the minimum ladder group count (regression: the
// equi-depth ladder indexed out of range on a 2-job component when a low
// threshold routed it approximate).
func TestApproxTinyComponents(t *testing.T) {
	for jobs := 1; jobs <= 6; jobs++ {
		in := workload.GenerateLargeGraph(workload.LargeGraphConfig{
			Jobs: jobs, Sites: 3, Degree: 2, Seed: uint64(jobs),
		})
		exact, err := core.NewSolver().AMF(in)
		if err != nil {
			t.Fatalf("jobs=%d exact: %v", jobs, err)
		}
		sv := &core.Solver{ApproxEpsilon: approxTrialEps, ApproxThreshold: 1}
		got, err := sv.AMF(in)
		if err != nil {
			t.Fatalf("jobs=%d approx: %v", jobs, err)
		}
		budget := approxTrialEps * in.Scale()
		for j := 0; j < jobs; j++ {
			if dev := math.Abs(got.Aggregate(j) - exact.Aggregate(j)); dev > budget {
				t.Fatalf("jobs=%d: job %d deviates %g > budget %g", jobs, j, dev, budget)
			}
		}
	}
}

// TestApproxDisabledBitIdentical pins the exactness knob: epsilon=0 (or an
// unreachable threshold) must produce bit-for-bit the plain solver's
// allocation, with no component reported as approximate.
func TestApproxDisabledBitIdentical(t *testing.T) {
	in := workload.GenerateLargeGraph(workload.LargeGraphConfig{Jobs: 200, Sites: 24, Seed: 42})
	plain := core.NewSolver()
	want, err := plain.AMF(in)
	if err != nil {
		t.Fatal(err)
	}
	for name, sv := range map[string]*core.Solver{
		"epsilon zero":        {ApproxEpsilon: 0, ApproxThreshold: 1},
		"threshold zero":      {ApproxEpsilon: 0.01, ApproxThreshold: 0},
		"threshold unreached": {ApproxEpsilon: 0.01, ApproxThreshold: math.MaxInt},
	} {
		got, err := sv.AMF(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st := sv.LastStats(); st.ApproxComponents != 0 || st.ApproxErrorBound != 0 {
			t.Fatalf("%s: stats report approximate components: %+v", name, st)
		}
		for j := range want.Share {
			for s := range want.Share[j] {
				if got.Share[j][s] != want.Share[j][s] {
					t.Fatalf("%s: share[%d][%d] = %g, want %g (must be bit-identical)",
						name, j, s, got.Share[j][s], want.Share[j][s])
				}
			}
		}
	}
}

// TestApproxThresholdRoutesSmallExact checks the size trigger: with the
// threshold above the instance size the solve is exact, just below it the
// approximate path engages.
func TestApproxThresholdRoutesSmallExact(t *testing.T) {
	in := workload.GenerateLargeGraph(workload.LargeGraphConfig{Jobs: 60, Sites: 12, Degree: 3, Seed: 7})
	size := in.NumJobs() + 60*3 // jobs + edges (degree is exact per job)
	over := &core.Solver{ApproxEpsilon: 0.01, ApproxThreshold: size}
	if _, err := over.AMF(in); err != nil {
		t.Fatal(err)
	}
	if st := over.LastStats(); st.ApproxComponents != 0 {
		t.Fatalf("threshold %d (== size) routed approximate: %+v", size, st)
	}
	under := &core.Solver{ApproxEpsilon: 0.01, ApproxThreshold: size - 1}
	if _, err := under.AMF(in); err != nil {
		t.Fatal(err)
	}
	if st := under.LastStats(); st.ApproxComponents != 1 {
		t.Fatalf("threshold %d (< size) stayed exact: %+v", size-1, st)
	}
}

// TestApproxIncrementalWithinEpsilon drives the approximate path through
// the incremental solver: the result must respect the epsilon budget
// against an exact from-scratch solve, and once the solver is switched to
// exact and Reset, the re-solve must match the exact solve bit for bit.
func TestApproxIncrementalWithinEpsilon(t *testing.T) {
	in := workload.GenerateLargeGraph(workload.LargeGraphConfig{Jobs: 150, Sites: 20, Seed: 13})
	in.JobName = make([]string, in.NumJobs())
	for j := range in.JobName {
		in.JobName[j] = "job-" + string(rune('A'+j/26)) + string(rune('a'+j%26))
	}
	exact, err := core.NewSolver().AMF(in)
	if err != nil {
		t.Fatal(err)
	}

	inc := &core.IncrementalSolver{Solver: &core.Solver{ApproxEpsilon: approxTrialEps, ApproxThreshold: 1}}
	got, err := inc.Solve(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := inc.LastStats()
	if st.ApproxComponents == 0 {
		t.Fatalf("incremental solve did not route approximate: %+v", st)
	}
	budget := approxTrialEps * in.Scale()
	if st.ApproxErrorBound > budget {
		t.Fatalf("error bound %g exceeds budget %g", st.ApproxErrorBound, budget)
	}
	for j := 0; j < in.NumJobs(); j++ {
		if dev := math.Abs(got.Aggregate(j) - exact.Aggregate(j)); dev > budget {
			t.Fatalf("job %d deviates %g > budget %g", j, dev, budget)
		}
	}

	// Flipping the solver to exact must not carry the approximate records:
	// after Reset the solve re-runs exactly.
	inc.Solver.ApproxEpsilon = 0
	inc.Reset()
	got2, err := inc.Solve(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := inc.LastStats(); st.ApproxComponents != 0 {
		t.Fatalf("exact re-solve reported approximate components: %+v", st)
	}
	for j := range exact.Share {
		for s := range exact.Share[j] {
			if got2.Share[j][s] != exact.Share[j][s] {
				t.Fatalf("share[%d][%d] differs from exact after disabling approximation", j, s)
			}
		}
	}
}
