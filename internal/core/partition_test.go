package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randSparseInstance assembles an instance from several independent blocks
// (jobs demanding only within their block's site range), then shuffles the
// global site and job order so component discovery cannot rely on
// contiguity. It sprinkles in zero-demand jobs and sites no job touches.
// The returned block count is a lower bound on the true component count
// (a block may itself be internally disconnected).
func randSparseInstance(rng *rand.Rand, weighted bool) (*Instance, int) {
	blocks := 1 + rng.Intn(6)
	type span struct{ js, je, ss, se int } // job/site ranges per block
	var spans []span
	nj, ns := 0, 0
	for b := 0; b < blocks; b++ {
		bj := 1 + rng.Intn(5)
		bs := 1 + rng.Intn(4)
		spans = append(spans, span{nj, nj + bj, ns, ns + bs})
		nj += bj
		ns += bs
	}
	deadJobs := rng.Intn(3)    // all-zero demand
	unusedSites := rng.Intn(3) // capacity no job can reach
	n, m := nj+deadJobs, ns+unusedSites

	sitePerm := rng.Perm(m)
	jobPerm := rng.Perm(n)
	in := &Instance{
		SiteCapacity: make([]float64, m),
		Demand:       make([][]float64, n),
	}
	for j := range in.Demand {
		in.Demand[j] = make([]float64, m)
	}
	for s := 0; s < m; s++ {
		in.SiteCapacity[sitePerm[s]] = 0.5 + rng.Float64()*9.5
	}
	for _, sp := range spans {
		for j := sp.js; j < sp.je; j++ {
			bs := sp.se - sp.ss
			k := 1 + rng.Intn(bs)
			for _, off := range rng.Perm(bs)[:k] {
				in.Demand[jobPerm[j]][sitePerm[sp.ss+off]] = 0.1 + rng.Float64()*4.9
			}
		}
	}
	if weighted {
		in.Weight = make([]float64, n)
		for j := range in.Weight {
			in.Weight[j] = 0.5 + rng.Float64()*3.5
		}
	}
	return in, blocks
}

// wholeNetwork solves in as one flow network, without the component
// decomposition: the AMFDiag/EnhancedAMFDiag reference.
func wholeNetwork(t *testing.T, sv *Solver, in *Instance, enhanced bool) *Allocation {
	t.Helper()
	var a *Allocation
	var err error
	if enhanced {
		a, _, err = sv.EnhancedAMFDiag(in)
	} else {
		a, _, err = sv.AMFDiag(in)
	}
	if err != nil {
		t.Fatalf("whole-network reference (enhanced=%v): %v", enhanced, err)
	}
	return a
}

// TestDecomposedMatchesMonolithic is the equivalence property test: on
// random sparse instances, the component-decomposed parallel solve and the
// whole-network solve produce the same AMF aggregate vector (the AMF
// vector is unique; the per-site split is only a witness). Run under -race
// in CI, this also exercises the merge and the scratch pool for data
// races.
func TestDecomposedMatchesMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dec := &Solver{}  // decomposed, parallel (default)
	mono := &Solver{} // single network, through AMFDiag
	for trial := 0; trial < 200; trial++ {
		in, blocks := randSparseInstance(rng, trial%2 == 1)
		tol := 1e-9 * in.Scale()
		for _, enhanced := range []bool{false, true} {
			solve := func(sv *Solver) *Allocation {
				t.Helper()
				var a *Allocation
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
			got := solve(dec)
			want := wholeNetwork(t, mono, in, enhanced)
			for j := range want.Share {
				if d := math.Abs(got.Aggregate(j) - want.Aggregate(j)); d > tol {
					t.Fatalf("trial %d (enhanced=%v, blocks=%d): job %d aggregate %g (decomposed) vs %g (monolithic), |diff| %g > %g",
						trial, enhanced, blocks, j, got.Aggregate(j), want.Aggregate(j), d, tol)
				}
			}
			if err := got.CheckFeasible(1e-6 * in.Scale()); err != nil {
				t.Fatalf("trial %d: decomposed allocation infeasible: %v", trial, err)
			}
			if st := dec.LastStats(); st.Components < blocks {
				t.Fatalf("trial %d: LastStats reports %d components, block construction guarantees >= %d",
					trial, st.Components, blocks)
			}
		}
	}
}

// TestSingleComponentTakesMonolithicPath checks that a fully connected
// instance is a one-component run: the default solver must report one
// component and produce a split bit-for-bit identical to the whole-network
// AMFDiag solve (the component is the whole instance, so it is the same
// arithmetic).
func TestSingleComponentTakesMonolithicPath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := &Instance{
		SiteCapacity: []float64{3, 4, 2},
		Demand:       make([][]float64, 12),
	}
	for j := range in.Demand {
		in.Demand[j] = make([]float64, 3)
		for s := range in.Demand[j] {
			in.Demand[j][s] = 0.1 + rng.Float64()*2
		}
	}
	dec := &Solver{}
	mono := &Solver{}
	got, err := dec.AMF(in)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := mono.AMFDiag(in)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want.Share {
		for s := range want.Share[j] {
			if got.Share[j][s] != want.Share[j][s] {
				t.Fatalf("job %d site %d: decomposed-path share %g != monolithic %g (single component must take the identical path)",
					j, s, got.Share[j][s], want.Share[j][s])
			}
		}
	}
	st := dec.LastStats()
	if st.Components != 1 {
		t.Fatalf("Components = %d, want 1", st.Components)
	}
	if st.LargestComponent != in.NumJobs() {
		t.Fatalf("LargestComponent = %d, want %d", st.LargestComponent, in.NumJobs())
	}
	if st.Speedup != 1 {
		t.Fatalf("Speedup = %g, want 1 on the monolithic path", st.Speedup)
	}
}

// TestDecomposedZeroDemandAndUnusedSites checks the degenerate shapes the
// partitioner must tolerate: jobs with no demand anywhere (no component),
// sites no job touches, and a zero-capacity site inside a component.
func TestDecomposedZeroDemandAndUnusedSites(t *testing.T) {
	in := &Instance{
		//              comp0  comp0  comp1  unused  comp1(zero cap)
		SiteCapacity: []float64{2, 1, 3, 5, 0},
		Demand: [][]float64{
			{1, 2, 0, 0, 0}, // comp 0
			{2, 0, 0, 0, 0}, // comp 0
			{0, 0, 4, 0, 1}, // comp 1
			{0, 0, 0, 0, 0}, // zero demand: no component
			{0, 0, 2, 0, 0}, // comp 1
		},
	}
	sv := &Solver{}
	a, err := sv.AMF(in)
	if err != nil {
		t.Fatal(err)
	}
	if st := sv.LastStats(); st.Components != 2 {
		t.Fatalf("Components = %d, want 2", st.Components)
	}
	if agg := a.Aggregate(3); agg != 0 {
		t.Fatalf("zero-demand job got aggregate %g, want 0", agg)
	}
	mono, _, err := (&Solver{}).AMFDiag(in)
	if err != nil {
		t.Fatal(err)
	}
	tol := 1e-9 * in.Scale()
	for j := range mono.Share {
		approx(t, a.Aggregate(j), mono.Aggregate(j), tol, "aggregate")
	}
	checkAMFInvariants(t, in, a)
}

// TestDecomposedSequential pins the Parallelism=1 path (worker pool of
// one) to the parallel default.
func TestDecomposedSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in, _ := randSparseInstance(rng, true)
	seq := &Solver{Parallelism: 1}
	par := &Solver{}
	a1, err := seq.AMF(in)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := par.AMF(in)
	if err != nil {
		t.Fatal(err)
	}
	tol := 1e-9 * in.Scale()
	for j := range a1.Share {
		approx(t, a2.Aggregate(j), a1.Aggregate(j), tol, "aggregate")
	}
}

// TestWarmSolverReuse checks that a solver's pooled scratch (network
// arena, checkpoint buffers) does not leak state between solves: the same
// instance re-solved warm is bit-identical to the cold solve, including
// after an interleaved solve of a differently-shaped instance and after
// Reset.
func TestWarmSolverReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	big := randWeightedInstance(rng, 40, 8)
	small := randInstance(rng, 3, 2)
	sv := &Solver{} // one network through AMFDiag, maximal arena reuse
	cold, _, err := sv.AMFDiag(big)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sv.AMFDiag(small); err != nil {
		t.Fatal(err)
	}
	warm, _, err := sv.AMFDiag(big)
	if err != nil {
		t.Fatal(err)
	}
	for j := range cold.Share {
		for s := range cold.Share[j] {
			if warm.Share[j][s] != cold.Share[j][s] {
				t.Fatalf("job %d site %d: warm share %g != cold %g", j, s, warm.Share[j][s], cold.Share[j][s])
			}
		}
	}
	sv.Reset()
	after, _, err := sv.AMFDiag(big)
	if err != nil {
		t.Fatal(err)
	}
	for j := range cold.Share {
		for s := range cold.Share[j] {
			if after.Share[j][s] != cold.Share[j][s] {
				t.Fatalf("job %d site %d: post-Reset share %g != cold %g", j, s, after.Share[j][s], cold.Share[j][s])
			}
		}
	}
}

// TestComponentsLabeling pins the shared grouping: components in order
// of their first row, rows and sites ascending, zero-demand rows apart,
// and a reused union-find left clean for the next grouping.
func TestComponentsLabeling(t *testing.T) {
	in := &Instance{
		SiteCapacity: []float64{1, 1, 1, 1, 1},
		Demand: [][]float64{
			{1, 0, 0, 0, 0},
			{0, 0, 1, 0, 0},
			{1, 1, 0, 0, 0},
			{0, 0, 0, 0, 0},
			{0, 1, 0, 0, 0}, // bridges to comp of jobs 0,2 via site 1
		},
	}
	var u siteUnion
	for pass := 0; pass < 2; pass++ {
		comps, zero := u.group(in, []int{0, 1, 2, 3, 4})
		want := []compGroup{{rows: []int{0, 2, 4}, sites: []int{0, 1}}, {rows: []int{1}, sites: []int{2}}}
		if len(comps) != len(want) {
			t.Fatalf("pass %d: %d components, want %d: %v", pass, len(comps), len(want), comps)
		}
		for c := range want {
			if !slices.Equal(comps[c].rows, want[c].rows) || !slices.Equal(comps[c].sites, want[c].sites) {
				t.Fatalf("pass %d: component %d = %+v, want %+v", pass, c, comps[c], want[c])
			}
		}
		if !slices.Equal(zero, []int{3}) {
			t.Fatalf("pass %d: zero-demand rows %v, want [3]", pass, zero)
		}
	}
	// A subset of rows groups on its own: without jobs 0 and 2, job 4 is a
	// component by itself.
	comps, zero := u.group(in, []int{1, 4})
	if len(comps) != 2 || len(zero) != 0 || !slices.Equal(comps[0].rows, []int{1}) || !slices.Equal(comps[1].sites, []int{1}) {
		t.Fatalf("subset grouping = %+v, zero %v", comps, zero)
	}
}

// TestFromScratchRowIdenticalToIncremental: a from-scratch solve
// (Solver.Solve) and the incremental kernel run the same component
// pipeline, so on random sparse instances — named jobs, zero-demand jobs,
// sites no job demands, work at sites a job does not demand — their rows
// must agree bit for bit, not just within tolerance, under every kernel:
// on the first solve; after some jobs' work rows change, some of them
// only at sites the job does not demand; after a job's weight doubles and
// returns; and after an external weight rises and falls, which moves the
// Enhanced-AMF floors of every component while no job changes.
func TestFromScratchRowIdenticalToIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	kernels := []Kernel{KernelAMF, KernelEnhanced, KernelPSMMF, KernelJCT}
	for trial := 0; trial < 200; trial++ {
		in, _ := randSparseInstance(rng, trial%2 == 1)
		in.JobName = make([]string, in.NumJobs())
		for j := range in.JobName {
			in.JobName[j] = fmt.Sprintf("job%d", j)
		}
		in.Work = randWork(rng, in)
		next := *in
		next.Work = slices.Clone(in.Work)
		dirty := map[string]bool{}
		for j := range next.Work {
			switch rng.Intn(6) {
			case 0:
				next.Work[j] = randWork(rng, in)[j]
				dirty[in.JobName[j]] = true
			case 1:
				// Flip only the work at sites the job does not demand,
				// which may lie outside its component: the work at the
				// component's own sites stays as it was.
				row := slices.Clone(in.Work[j])
				for s, d := range in.Demand[j] {
					if d == 0 {
						if row[s] > 0 {
							row[s] = 0
						} else if rng.Intn(4) == 0 {
							row[s] = 0.5
						}
					}
				}
				next.Work[j] = row
				dirty[in.JobName[j]] = true
			}
		}
		// A job's weight doubles, then returns; the external weight rises to
		// the job set's weight sum, then falls to a tenth of it.
		j := rng.Intn(in.NumJobs())
		wsum := 0.0
		weights := make([]float64, in.NumJobs())
		for i := range weights {
			weights[i] = next.JobWeight(i)
			wsum += weights[i]
		}
		heavy, back := next, next
		heavy.Weight = slices.Clone(weights)
		heavy.Weight[j] *= 2
		back.Weight = weights
		up, down := back, back
		up.ExternalWeight = wsum
		down.ExternalWeight = wsum / 10
		steps := []*Instance{in, &next, &heavy, &back, &up, &down}
		dirties := []map[string]bool{nil, dirty, {in.JobName[j]: true}, {in.JobName[j]: true}, nil, nil}
		for _, k := range kernels {
			sv := &Solver{SkipJCTRefine: trial%4 < 2}
			x := &IncrementalSolver{Solver: sv, Kernel: k}
			for step, cur := range steps {
				want, err := sv.Solve(cur, k)
				if err != nil {
					t.Fatalf("trial %d (kernel %d, step %d): from scratch: %v", trial, k, step, err)
				}
				got, err := x.Solve(cur, dirties[step])
				if err != nil {
					t.Fatalf("trial %d (kernel %d, step %d): incremental: %v", trial, k, step, err)
				}
				for j := range want.Share {
					for s, v := range want.Share[j] {
						if math.Float64bits(got.Share[j][s]) != math.Float64bits(v) {
							t.Fatalf("trial %d (kernel %d, step %d, %d components): job %d site %d: incremental %v, from scratch %v",
								trial, k, step, sv.LastStats().Components, j, s, got.Share[j][s], v)
						}
					}
				}
			}
		}
	}
}
