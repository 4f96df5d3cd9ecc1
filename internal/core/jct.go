package core

import (
	"math"
	"sort"

	"repro/internal/maxflow"
)

// jctMaxTheta is the largest stretch the add-on searches; allocations whose
// aggregates cannot realize any finite completion time for some job (all of
// a work site's capacity pinned elsewhere) fall back to the witness split.
const jctMaxTheta = 1e6

// jctStuckTheta is the stretch beyond which a job is treated as stuck: if
// a job cannot be served at every work site even when allowed a 1e4x
// slowdown, holding a sliver of capacity for it only distorts the min-max
// search, so it is excluded from the optimization (its shares stay free).
const jctStuckTheta = 1e4

// OptimizeJCT redistributes each job's aggregate allocation across sites to
// reduce job completion times, holding the aggregate vector of base fixed
// (so AMF fairness is untouched). It minimizes the maximum completion-time
// stretch over jobs, then greedily tightens individual jobs within the
// remaining slack, approximating the lexicographic minimum.
//
// Completion times use the fluid model: job j with share a[j][s] finishes
// its site-s work in Work[j][s]/a[j][s]; its completion time is the max
// over sites; its stretch divides that by the best time achievable with the
// same aggregate (TotalWork/Aggregate).
//
// If no finite stretch is jointly feasible the witness split from base is
// returned unchanged.
func (sv *Solver) OptimizeJCT(base *Allocation) (*Allocation, error) {
	in := base.Inst
	if err := in.Validate(); err != nil {
		return nil, err
	}
	n := in.NumJobs()
	agg := base.Aggregates()
	scale := in.Scale()
	tol := sv.eps() * scale

	// Jobs participating in stretch optimization: positive aggregate,
	// positive work, and a finite per-job minimal stretch.
	thetaMin := make([]float64, n)
	included := make([]bool, n)
	for j := 0; j < n; j++ {
		W := in.TotalWork(j)
		if agg[j] <= tol || W <= 0 {
			continue
		}
		tm := 1.0
		finite := true
		for s := range in.SiteCapacity {
			w := in.JobWork(j, s)
			if w <= 0 {
				continue
			}
			d := in.Demand[j][s]
			if d <= 0 {
				finite = false
				break
			}
			// theta_j >= w*A/(W*d) keeps the lower bound within demand.
			tm = math.Max(tm, w*agg[j]/(W*d))
		}
		if finite {
			included[j] = true
			thetaMin[j] = tm
		}
	}

	solve := func(theta []float64) (*Allocation, bool) {
		return sv.jctFeasible(in, agg, included, theta)
	}

	// Phase 0: exclude stuck jobs — those that cannot be served at every
	// work site even alone at jctStuckTheta. Their lower bounds would pin
	// the global min-max stretch at meaningless magnitudes.
	if !sv.SkipJCTRefine {
		for j := 0; j < n; j++ {
			if !included[j] {
				continue
			}
			probe := make([]float64, n)
			solo := make([]bool, n)
			solo[j] = true
			probe[j] = math.Max(jctStuckTheta, thetaMin[j])
			if _, ok := sv.jctFeasible(in, agg, solo, probe); !ok {
				included[j] = false
			}
		}
	}

	// Phase 1: global min-max stretch by binary search.
	theta := make([]float64, n)
	set := func(v float64) []float64 {
		for j := range theta {
			if included[j] {
				theta[j] = math.Max(v, thetaMin[j])
			}
		}
		return theta
	}
	if _, ok := solve(set(jctMaxTheta)); !ok {
		// Some job's work sits at a site whose capacity is entirely pinned
		// elsewhere, so no finite completion time is jointly realizable for
		// the full set. Exclude the stuck jobs individually and retry; if
		// the remainder still cannot be served, keep the witness split.
		for j := 0; j < n; j++ {
			if !included[j] {
				continue
			}
			probe := make([]float64, n)
			solo := make([]bool, n)
			solo[j] = true
			probe[j] = jctMaxTheta
			if _, ok := sv.jctFeasible(in, agg, solo, probe); !ok {
				included[j] = false
			}
		}
		if _, ok := solve(set(jctMaxTheta)); !ok {
			return base.Clone(), nil
		}
	}
	lo := 1.0
	for j := 0; j < n; j++ {
		if included[j] {
			lo = math.Max(lo, thetaMin[j])
		}
	}
	hiTheta := jctMaxTheta
	loTheta := lo
	if _, ok := solve(set(loTheta)); ok {
		hiTheta = loTheta
	} else {
		for hiTheta/loTheta > 1.0+1e-4 {
			mid := math.Sqrt(hiTheta * loTheta)
			if _, ok := solve(set(mid)); ok {
				hiTheta = mid
			} else {
				loTheta = mid
			}
		}
	}
	bounds := make([]float64, n)
	for j := 0; j < n; j++ {
		if included[j] {
			bounds[j] = math.Max(hiTheta, thetaMin[j])
		}
	}

	if sv.SkipJCTRefine {
		out, ok := solve(bounds)
		if !ok {
			return base.Clone(), nil
		}
		return out, nil
	}

	// Phase 2: tighten individual jobs within the global bound, hardest
	// (largest minimal stretch) first.
	order := make([]int, 0, n)
	for j := 0; j < n; j++ {
		if included[j] {
			order = append(order, j)
		}
	}
	sort.Slice(order, func(a, b int) bool { return thetaMin[order[a]] > thetaMin[order[b]] })
	for _, j := range order {
		lo, hi := thetaMin[j], bounds[j]
		if hi/lo <= 1.0+1e-4 {
			continue
		}
		probe := append([]float64(nil), bounds...)
		probe[j] = lo
		if _, ok := solve(probe); ok {
			bounds[j] = lo
			continue
		}
		for hi/lo > 1.0+1e-3 {
			mid := math.Sqrt(hi * lo)
			probe[j] = mid
			if _, ok := solve(probe); ok {
				hi = mid
			} else {
				lo = mid
			}
		}
		bounds[j] = hi
	}

	out, ok := solve(bounds)
	if !ok {
		// Should not happen: bounds were verified feasible along the way.
		return base.Clone(), nil
	}
	return out, nil
}

// jctFeasible tests whether shares exist that (a) meet every job's pinned
// aggregate, (b) respect demands and capacities, and (c) give each included
// job j at least Work[j][s]*A_j/(theta_j*W_j) at every site with work, so
// its stretch is at most theta_j. On success it returns the allocation.
func (sv *Solver) jctFeasible(in *Instance, agg []float64, included []bool, theta []float64) (*Allocation, bool) {
	n := in.NumJobs()
	m := in.NumSites()
	scale := in.Scale()
	eps := math.Max(1e-9*scale, 1e-15)

	src := 0
	jobNode := func(j int) int { return 1 + j }
	siteNode := func(s int) int { return 1 + n + s }
	sink := 1 + n + m

	var edges []maxflow.BoundedEdge
	type ref struct{ j, s, idx int }
	var refs []ref
	for j := 0; j < n; j++ {
		if agg[j] <= 0 {
			continue
		}
		edges = append(edges, maxflow.BoundedEdge{
			From: src, To: jobNode(j), Lower: agg[j], Upper: agg[j],
		})
		W := in.TotalWork(j)
		for s := 0; s < m; s++ {
			d := in.Demand[j][s]
			if d <= 0 {
				continue
			}
			lower := 0.0
			if included[j] && theta[j] > 0 && W > 0 {
				if w := in.JobWork(j, s); w > 0 {
					lower = math.Min(w*agg[j]/(theta[j]*W), d)
				}
			}
			if lower < 100*eps {
				// A bound this small is numerically indistinguishable from
				// zero and would destabilize the circulation transform.
				lower = 0
			}
			refs = append(refs, ref{j: j, s: s, idx: len(edges)})
			edges = append(edges, maxflow.BoundedEdge{
				From: jobNode(j), To: siteNode(s), Lower: lower, Upper: d,
			})
		}
	}
	for s := 0; s < m; s++ {
		edges = append(edges, maxflow.BoundedEdge{
			From: siteNode(s), To: sink, Lower: 0, Upper: in.SiteCapacity[s],
		})
	}
	flows, ok := maxflow.FeasibleFlow(2+n+m, src, sink, edges, eps)
	if !ok {
		return nil, false
	}
	alloc := NewAllocation(in)
	for _, r := range refs {
		f := flows[r.idx]
		if f < 10*eps {
			// Numerical dust masquerades as a served work site and turns
			// infinite completion times into astronomically finite ones.
			f = 0
		}
		alloc.Share[r.j][r.s] = f
	}
	return alloc, true
}

// AMFWithJCT computes the AMF allocation and applies the completion-time
// add-on to its per-site split, one connected component at a time
// (KernelJCT): each component's stretch search is independent of every
// other's.
func (sv *Solver) AMFWithJCT(in *Instance) (*Allocation, error) {
	return sv.Solve(in, KernelJCT)
}
