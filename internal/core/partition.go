package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Connected-component decomposition of the job×site demand graph.
//
// Data locality — the premise of the paper — makes realistic instances
// sparse: each job demands resource only at the few sites holding its
// data, so the bipartite demand graph typically splits into many connected
// components. No feasible allocation moves resource across components
// (a job's share at a site is capped by its demand there, which is zero
// outside its component), so the feasibility oracle factorizes and
// progressive filling never couples components: AMF over a component is
// exactly the restriction of AMF over the whole instance. The same holds
// for Enhanced AMF provided the floors are computed against the FULL
// instance first (EqualShares depends on the global weight sum) and then
// sliced per component.
//
// Every solve runs one pipeline over the components:
//
//   - siteUnion.group partitions a set of rows into components, each with
//     its rows and sites ascending, and sets zero-demand rows apart;
//   - materialize builds one component as an independent instance;
//   - Solver.solveComponents materializes and solves a list of components
//     on a bounded worker pool (Solver.Parallelism, default GOMAXPROCS)
//     and hands back each one's local allocation.
//
// What a component solve computes is its Kernel: each of the paper's four
// disciplines decomposes exactly by component, so each is one
// per-component function (fillComponent) and nothing else. Solver.Solve
// groups every row and solves every component. IncrementalSolver.SolveDelta
// groups only the rows of the components a delta touched, and solves only
// the components it cannot reuse. A from-scratch solve is the incremental
// kernel with every component dirty, so the two produce bit-identical
// rows. Each worker checks its own solveScratch out of the solver's pool,
// so parallel workers never share a flow network.

// Kernel is the per-component discipline the component pipeline runs.
type Kernel uint8

const (
	// KernelAMF is aggregate max-min fairness: progressive filling, exact
	// or approximate per the solver's routing.
	KernelAMF Kernel = iota
	// KernelEnhanced is KernelAMF above the equal-share floors, computed
	// against the full instance (EqualShares) and sliced per component.
	KernelEnhanced
	// KernelPSMMF is the per-site max-min baseline (PerSiteMMF): every
	// site belongs to exactly one component, so its water-fill is local.
	KernelPSMMF
	// KernelJCT is KernelAMF followed by the completion-time add-on
	// (OptimizeJCT) on the component: the add-on holds every aggregate
	// fixed and moves share only between a job's own sites, so the
	// stretch search splits into one independent search per component.
	KernelJCT
)

// SolveStats describes how the most recent solve executed:
// how the instance decomposed into independent components and what
// parallel execution bought.
type SolveStats struct {
	// Components is the number of connected components of the job×site
	// demand graph that were solved.
	Components int
	// LargestComponent is the job count of the largest component solved.
	LargestComponent int
	// SequentialTime sums the per-component solve wall times — what a
	// sequential solve of the same decomposition would have cost.
	SequentialTime time.Duration
	// WallTime is the observed wall-clock time of the solve.
	WallTime time.Duration
	// Speedup is the parallel speedup of the worker pool: SequentialTime
	// over the pool's wall time, and 1 when at most one component was
	// solved.
	Speedup float64
	// ApproxComponents is how many components routed through the
	// approximate water-filling fast path (approx.go); zero means the
	// whole solve was exact.
	ApproxComponents int
	// ApproxErrorBound is the largest certified per-job aggregate
	// deviation from the exact max-min allocation across all approximately
	// solved components (absolute, in resource units; zero when every
	// component solved exactly).
	ApproxErrorBound float64
}

// LastStats reports the decomposition record of the solver's most recent
// solve. Safe for concurrent use.
func (sv *Solver) LastStats() SolveStats {
	sv.statsMu.Lock()
	defer sv.statsMu.Unlock()
	return sv.stats
}

func (sv *Solver) recordStats(st SolveStats) {
	sv.statsMu.Lock()
	sv.stats = st
	sv.statsMu.Unlock()
}

// parallelism reports the effective worker-pool bound.
func (sv *Solver) parallelism() int {
	if sv.Parallelism > 0 {
		return sv.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// fill solves every component of in under kernel k. Zero-demand rows and
// sites no job demands keep their zero shares.
func (sv *Solver) fill(in *Instance, k Kernel) (*Allocation, error) {
	start := time.Now()
	rows := make([]int, in.NumJobs())
	for j := range rows {
		rows[j] = j
	}
	var u siteUnion
	groups, _ := u.group(in, rows)
	sv.stage(StagePartition, time.Since(start), false)
	tSolve := time.Now()
	var floors []float64
	if k == KernelEnhanced {
		floors = EqualShares(in)
	}
	runs, st, err := sv.solveComponents(in, groups, k, floors)
	if err != nil {
		return nil, err
	}
	alloc := NewAllocation(in)
	for c, g := range groups {
		local := runs[c].alloc.Share
		for lj, j := range g.rows {
			row := alloc.Share[j]
			for ls, s := range g.sites {
				row[s] = local[lj][ls]
			}
		}
		st.LargestComponent = max(st.LargestComponent, len(g.rows))
	}
	sv.stage(StageSolve, time.Since(tSolve), false)
	st.Components = len(groups)
	st.WallTime = time.Since(start)
	sv.recordStats(st)
	return alloc, nil
}

// compGroup is one connected component of the demand graph: its instance
// rows and the sites they demand, both ascending.
type compGroup struct {
	rows  []int
	sites []int
}

// siteUnion is a union-find over site indices. Its slices are reused
// across groupings, each of which touches, and then resets, only the
// sites its rows demand.
type siteUnion struct {
	parent  []int // -1 for a site no row of the current grouping demands
	label   []int // root site -> component index, -1 before labeling
	touched []int // sites with parent set, reset after each grouping
	first   []int // per grouped row: its first demanded site, then its component
	count   []int // per component: its rows, then its sites
}

func (u *siteUnion) find(s int) int {
	for u.parent[s] != s {
		u.parent[s] = u.parent[u.parent[s]] // path halving
		s = u.parent[s]
	}
	return s
}

// group partitions rows — ascending instance rows — into the connected
// components of the demand graph they span. Components come in the order
// of their first row. Rows with no positive demand belong to no component
// (they freeze at zero without entering a network) and are returned
// apart, ascending. Sites no row demands belong to no component either:
// their capacity is unreachable.
func (u *siteUnion) group(in *Instance, rows []int) (comps []compGroup, zero []int) {
	if m := in.NumSites(); len(u.parent) < m {
		u.parent = make([]int, m)
		u.label = make([]int, m)
		for s := range u.parent {
			u.parent[s], u.label[s] = -1, -1
		}
	}
	u.first = u.first[:0]
	for _, i := range rows {
		first := -1
		for s, d := range in.Demand[i] {
			if d <= 0 {
				continue
			}
			if u.parent[s] < 0 {
				u.parent[s] = s
				u.touched = append(u.touched, s)
			}
			if first < 0 {
				first = s
			} else if ra, rb := u.find(first), u.find(s); ra != rb {
				u.parent[ra] = rb
			}
		}
		u.first = append(u.first, first)
	}
	u.count = u.count[:0]
	for k, f := range u.first {
		if f < 0 {
			zero = append(zero, rows[k])
			continue
		}
		r := u.find(f)
		if u.label[r] < 0 {
			u.label[r] = len(u.count)
			u.count = append(u.count, 0)
		}
		u.first[k] = u.label[r]
		u.count[u.label[r]]++
	}
	// Rows and sites are carved out of one backing array each, sized by
	// the counts, so a grouping costs a constant number of allocations.
	comps = make([]compGroup, len(u.count))
	backing := make([]int, len(rows)-len(zero))
	for c, off := 0, 0; c < len(comps); c++ {
		comps[c].rows = backing[off : off : off+u.count[c]]
		off += u.count[c]
	}
	for k, c := range u.first {
		if c >= 0 {
			comps[c].rows = append(comps[c].rows, rows[k])
		}
	}
	// A site is demanded by rows of exactly one component: any two rows
	// demanding it were unioned through it.
	slices.Sort(u.touched)
	clear(u.count)
	for _, s := range u.touched {
		u.count[u.label[u.find(s)]]++
	}
	backing = make([]int, len(u.touched))
	for c, off := 0, 0; c < len(comps); c++ {
		comps[c].sites = backing[off : off : off+u.count[c]]
		off += u.count[c]
	}
	for _, s := range u.touched {
		c := u.label[u.find(s)]
		comps[c].sites = append(comps[c].sites, s)
	}
	for _, s := range u.touched {
		u.parent[s], u.label[s] = -1, -1
	}
	u.touched = u.touched[:0]
	return comps, zero
}

// materialize builds component g as an independent instance: g's rows
// restricted to g's sites, in g's order, with their weights, their work
// rows when kernel k reads work (KernelJCT) and, when floors (computed
// against the full instance) is non-nil, their floors. A row with stray
// work (strayWork) gets no work: OptimizeJCT on the whole instance
// excludes such a job from the stretch search, as it does a job with no
// work, and the stray site may lie outside g.
func materialize(in *Instance, g compGroup, k Kernel, floors []float64) (*Instance, []float64) {
	nj, ns := len(g.rows), len(g.sites)
	sub := &Instance{
		SiteCapacity: make([]float64, ns),
		Demand:       make([][]float64, nj),
	}
	for ls, s := range g.sites {
		sub.SiteCapacity[ls] = in.SiteCapacity[s]
	}
	if in.Weight != nil {
		sub.Weight = make([]float64, nj)
	}
	if k == KernelJCT && in.Work != nil {
		sub.Work = make([][]float64, nj)
	}
	var subFloors []float64
	if floors != nil {
		subFloors = make([]float64, nj)
	}
	cells := make([]float64, nj*ns)
	for lj, i := range g.rows {
		row := cells[lj*ns : (lj+1)*ns : (lj+1)*ns]
		for ls, s := range g.sites {
			row[ls] = in.Demand[i][s]
		}
		sub.Demand[lj] = row
		if sub.Weight != nil {
			sub.Weight[lj] = in.Weight[i]
		}
		if sub.Work != nil {
			sub.Work[lj] = make([]float64, ns)
			if !strayWork(in, i) {
				for ls, s := range g.sites {
					sub.Work[lj][ls] = in.Work[i][s]
				}
			}
		}
		if subFloors != nil {
			subFloors[lj] = floors[i]
		}
	}
	return sub, subFloors
}

// fillComponent solves component g of in under kernel k. Every kernel but
// PS-MMF fills the component with AMF first, routed through the
// approximate water-filling when the fast path is enabled and the
// component is large enough; solveComponents emits the solve.approx stage
// event from the report (not here: parallel workers must not fire the
// OnStage hook concurrently).
//
// Under KernelEnhanced the exact route fills without floors and publishes
// that fill when every member meets its floor (meetsFloor): it is then the
// Enhanced point (incremental.go). Only otherwise does it fill again above
// the floors, and the run is floor-bound. The approximate route fills
// above the floors directly — its error bound certifies a fill against
// the exact point of the same problem, and a plain approximate fill can
// clear a floor the exact plain point misses — so its runs are always
// floor-bound.
func (sv *Solver) fillComponent(in *Instance, g compGroup, k Kernel, floors []float64) (componentRun, error) {
	sub, subFloors := materialize(in, g, k, floors)
	if k == KernelPSMMF {
		return componentRun{alloc: PerSiteMMF(sub)}, nil
	}
	var (
		r   componentRun
		err error
	)
	switch {
	case sv.approxRoute(sub):
		t0 := time.Now()
		var bound float64
		r.alloc, bound, err = sv.approxFill(sub, subFloors)
		r.rep = approxReport{used: true, errBound: bound, d: time.Since(t0)}
		r.floorBound = subFloors != nil
	case subFloors != nil:
		r.alloc, err = sv.fillMono(sub, nil, nil)
		for lj := 0; err == nil && lj < len(subFloors); lj++ {
			if !meetsFloor(r.alloc.Share[lj], nil, subFloors[lj]) {
				r.floorBound = true
				break
			}
		}
		if r.floorBound {
			r.alloc, err = sv.fillMono(sub, subFloors, nil)
		}
	default:
		r.alloc, err = sv.fillMono(sub, nil, nil)
	}
	if err != nil || k != KernelJCT {
		return r, err
	}
	r.alloc, err = sv.OptimizeJCT(r.alloc)
	return r, err
}

// meetsFloor reports whether a member's aggregate reaches its floor. The
// aggregate sums row at cols, in order, or the whole row when cols is nil:
// a component's compact local row and its full-width row read at the
// component's ascending sites give the same sum bit for bit, so the kernel
// and the incremental reuse check decide alike. The comparison is exact:
// a tolerance would let a carried record differ from the one a
// from-scratch solve publishes.
func meetsFloor(row []float64, cols []int, floor float64) bool {
	var agg float64
	if cols == nil {
		for _, v := range row {
			agg += v
		}
	} else {
		for _, s := range cols {
			agg += row[s]
		}
	}
	return agg >= floor
}

// strayWork reports whether job i has positive work at a site it does not
// demand (in.Work must be non-nil).
func strayWork(in *Instance, i int) bool {
	for s, w := range in.Work[i] {
		if w > 0 && in.Demand[i][s] == 0 {
			return true
		}
	}
	return false
}

// componentRun is one component's solve on the worker pool.
type componentRun struct {
	// alloc is the local allocation: row lj is the group's rows[lj] and
	// column ls its sites[ls].
	alloc *Allocation
	rep   approxReport
	d     time.Duration
	// floorBound marks an Enhanced-AMF fill above the floors
	// (fillComponent).
	floorBound bool
}

// solveComponents solves each group under kernel k as an independent
// instance (fillComponent) on a bounded worker pool. The calling goroutine
// is one of the workers: the common commit solves a single component and
// should not pay a spawn for it. Once the pool drains, the calling
// goroutine emits one solve.component detail per group and one
// solve.approx detail per approximately solved group; st carries their
// summed wall time, the pool's speedup and the approximate-path record.
func (sv *Solver) solveComponents(in *Instance, groups []compGroup, k Kernel, floors []float64) (runs []componentRun, st SolveStats, err error) {
	start := time.Now()
	runs = make([]componentRun, len(groups))
	var (
		wg    sync.WaitGroup
		next  atomic.Int64
		errMu sync.Mutex
	)
	worker := func() {
		defer wg.Done()
		for {
			c := int(next.Add(1)) - 1
			if c >= len(groups) {
				return
			}
			t0 := time.Now()
			r, ferr := sv.fillComponent(in, groups[c], k, floors)
			r.d = time.Since(t0)
			runs[c] = r
			if ferr != nil {
				errMu.Lock()
				if err == nil {
					err = fmt.Errorf("core: component %d (%d jobs): %w", c, len(groups[c].rows), ferr)
				}
				errMu.Unlock()
				return
			}
		}
	}
	if workers := min(sv.parallelism(), len(groups)); workers > 0 {
		wg.Add(workers)
		for w := 1; w < workers; w++ {
			go worker()
		}
		worker()
		wg.Wait()
	}
	if err != nil {
		return nil, st, err
	}
	for _, r := range runs {
		st.SequentialTime += r.d
		sv.stage(StageSolveComponent, r.d, true)
	}
	st.Speedup = 1
	if wall := time.Since(start); len(groups) > 1 && wall > 0 {
		st.Speedup = float64(st.SequentialTime) / float64(wall)
	}
	for _, r := range runs {
		if r.rep.used {
			st.ApproxComponents++
			st.ApproxErrorBound = max(st.ApproxErrorBound, r.rep.errBound)
			sv.stage(StageSolveApprox, r.rep.d, true)
		}
	}
	return runs, st, nil
}
