package core

import (
	"math"
	"math/rand"
	"testing"
)

// randWork draws a work matrix for in: mostly a multiple of the demand at
// each demanded site, sometimes no work at a demanded site, and sometimes
// work at a site the job does not demand (which excludes the job from the
// completion-time search).
func randWork(rng *rand.Rand, in *Instance) [][]float64 {
	work := make([][]float64, in.NumJobs())
	for j, row := range in.Demand {
		work[j] = make([]float64, len(row))
		for s, d := range row {
			switch {
			case d > 0 && rng.Intn(8) > 0:
				work[j][s] = d * (0.2 + 4.8*rng.Float64())
			case d == 0 && rng.Intn(20) == 0:
				work[j][s] = 0.1 + rng.Float64()
			}
		}
	}
	return work
}

// TestKernelPSMMFBitIdentical: per-site max-min divides each site among
// the jobs demanding it, and every such job lies in the site's component,
// so the PS-MMF kernel run per component is PerSiteMMF bit for bit —
// zero-demand jobs, unused sites and weights included.
func TestKernelPSMMFBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1301))
	for trial := 0; trial < 200; trial++ {
		in, _ := randSparseInstance(rng, trial%2 == 1)
		got, err := NewSolver().Solve(in, KernelPSMMF)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := PerSiteMMF(in)
		for j := range want.Share {
			for s, v := range want.Share[j] {
				if math.Float64bits(got.Share[j][s]) != math.Float64bits(v) {
					t.Fatalf("trial %d: job %d site %d: kernel %v, PerSiteMMF %v", trial, j, s, got.Share[j][s], v)
				}
			}
		}
	}
}

// TestKernelJCTPerComponent checks the JCT kernel against the
// whole-instance add-on (AMF, then OptimizeJCT on the whole instance, whose
// stretch search runs on one global bound). Per component it must:
//   - keep AMF's aggregates within 10·1e-9·Scale, the add-on's own dust
//     rule: jctFeasible solves to 1e-9·Scale and zeroes flows below ten
//     times that (the kernel moves them by up to ~4.1e-9·Scale on these
//     draws; the whole-instance add-on by up to ~4e-8·Scale);
//   - reach a max stretch over the component's jobs no worse than the
//     whole-instance split's over the same jobs, up to the search's
//     1e-4 relative resolution;
//   - exclude a job with work at a site it does not demand exactly as the
//     whole instance does: its rows equal those of the instance where the
//     job has no work at all (the other exclusion), even when the site
//     lies outside the job's component.
func TestKernelJCTPerComponent(t *testing.T) {
	rng := rand.New(rand.NewSource(1307))
	for trial := 0; trial < 200; trial++ {
		in, _ := randSparseInstance(rng, trial%2 == 1)
		in.Work = randWork(rng, in)
		sv := &Solver{SkipJCTRefine: trial%2 == 0}
		got, err := sv.Solve(in, KernelJCT)
		if err != nil {
			t.Fatalf("trial %d: kernel: %v", trial, err)
		}
		base, err := sv.AMF(in)
		if err != nil {
			t.Fatalf("trial %d: AMF: %v", trial, err)
		}
		whole, err := sv.OptimizeJCT(base)
		if err != nil {
			t.Fatalf("trial %d: OptimizeJCT: %v", trial, err)
		}
		tol := 10 * 1e-9 * in.Scale()
		for j := range base.Share {
			if d := math.Abs(got.Aggregate(j) - base.Aggregate(j)); d > tol {
				t.Fatalf("trial %d job %d: aggregate %v, AMF %v", trial, j, got.Aggregate(j), base.Aggregate(j))
			}
		}
		rows := make([]int, in.NumJobs())
		for j := range rows {
			rows[j] = j
		}
		var u siteUnion
		groups, _ := u.group(in, rows)
		for c, g := range groups {
			var gotMax, wholeMax float64
			for _, j := range g.rows {
				if s := whole.Stretch(j); !math.IsInf(s, 1) {
					wholeMax = math.Max(wholeMax, s)
				}
				if s := got.Stretch(j); !math.IsInf(s, 1) {
					gotMax = math.Max(gotMax, s)
				}
			}
			if gotMax > wholeMax*(1+1e-4)+1e-6 {
				t.Fatalf("trial %d component %d: max stretch %v per component, %v on the whole instance", trial, c, gotMax, wholeMax)
			}
		}

		// Zeroing the work of every job with work at an undemanded site
		// must change nothing.
		zeroed := *in
		zeroed.Work = make([][]float64, in.NumJobs())
		for j, row := range in.Work {
			zeroed.Work[j] = row
			for s, w := range row {
				if w > 0 && in.Demand[j][s] == 0 {
					zeroed.Work[j] = make([]float64, len(row))
					break
				}
			}
		}
		want, err := sv.Solve(&zeroed, KernelJCT)
		if err != nil {
			t.Fatalf("trial %d: zeroed kernel: %v", trial, err)
		}
		for j := range want.Share {
			for s, v := range want.Share[j] {
				if math.Float64bits(got.Share[j][s]) != math.Float64bits(v) {
					t.Fatalf("trial %d: job %d site %d: %v with work at an undemanded site, %v without work", trial, j, s, got.Share[j][s], v)
				}
			}
		}
	}
}
