package core

import (
	"fmt"
	"runtime"
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
// sliced per component — which is what fill does.
//
// The solver exploits this by solving components as independent
// sub-instances on a bounded worker pool (Solver.Parallelism, default
// GOMAXPROCS) and merging the per-component witness splits back into one
// Allocation. Each worker checks its own solveScratch out of the solver's
// pool, so parallel workers never share a flow network.

// SolveStats describes how the most recent AMF/EnhancedAMF solve executed:
// how the instance decomposed into independent components and what
// parallel execution bought.
type SolveStats struct {
	// Seq is a monotonically increasing solve counter: it advances by one
	// every time the solver records a run, so a caller holding two
	// LastStats reads can tell whether the solver executed in between
	// (policies like PS-MMF never enter the core solver at all).
	Seq uint64
	// Components is the number of connected components of the job×site
	// demand graph that were solved (1 for the monolithic path).
	Components int
	// LargestComponent is the job count of the largest component solved
	// (the whole job count on the monolithic path).
	LargestComponent int
	// SequentialTime sums the per-component solve wall times — what a
	// sequential solve of the same decomposition would have cost.
	SequentialTime time.Duration
	// WallTime is the observed wall-clock time of the solve.
	WallTime time.Duration
	// Speedup is SequentialTime/WallTime: the parallel speedup of the
	// decomposed solve (1 on the monolithic path).
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
// AMF/EnhancedAMF solve. Safe for concurrent use.
func (sv *Solver) LastStats() SolveStats {
	sv.statsMu.Lock()
	defer sv.statsMu.Unlock()
	return sv.stats
}

func (sv *Solver) recordStats(st SolveStats) {
	sv.statsMu.Lock()
	st.Seq = sv.stats.Seq + 1
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

// components labels each job with the connected component of the job×site
// demand graph it belongs to, via union-find over the sites each job
// touches. Jobs with no positive demand belong to no component and are
// labeled -1 (they freeze at zero without ever entering a network).
// Labels are compacted to 0..ncomp-1.
func components(in *Instance) (jobComp []int, ncomp int) {
	n := in.NumJobs()
	m := in.NumSites()
	parent := make([]int, m)
	for s := range parent {
		parent[s] = s
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	first := make([]int, n)
	for j := 0; j < n; j++ {
		first[j] = -1
		for s, d := range in.Demand[j] {
			if d <= 0 {
				continue
			}
			if first[j] < 0 {
				first[j] = s
			} else if ra, rb := find(first[j]), find(s); ra != rb {
				parent[ra] = rb
			}
		}
	}
	label := make([]int, m)
	for s := range label {
		label[s] = -1
	}
	jobComp = make([]int, n)
	for j := 0; j < n; j++ {
		if first[j] < 0 {
			jobComp[j] = -1
			continue
		}
		r := find(first[j])
		if label[r] < 0 {
			label[r] = ncomp
			ncomp++
		}
		jobComp[j] = label[r]
	}
	return jobComp, ncomp
}

// subInstance is one component materialized as an independent instance,
// with the index maps needed to merge its solution back.
type subInstance struct {
	in     *Instance
	jobs   []int // global job index per local row
	sites  []int // global site index per local column
	floors []float64
}

// buildSubInstances materializes each component. Sites untouched by any
// job (and hence outside every component) are dropped: their capacity is
// unreachable and cannot affect any allocation. floors, when non-nil, are
// sliced per component — they were computed against the full instance.
func buildSubInstances(in *Instance, floors []float64, jobComp []int, ncomp int) []subInstance {
	n := in.NumJobs()
	m := in.NumSites()
	subs := make([]subInstance, ncomp)
	// A site is touched by jobs of at most one component: any two jobs with
	// positive demand at it were unioned through it.
	siteSeen := make([]bool, m)
	for j := 0; j < n; j++ {
		c := jobComp[j]
		if c < 0 {
			continue
		}
		subs[c].jobs = append(subs[c].jobs, j)
		for s, d := range in.Demand[j] {
			if d > 0 && !siteSeen[s] {
				siteSeen[s] = true
				subs[c].sites = append(subs[c].sites, s)
			}
		}
	}
	for c := range subs {
		sub := &subs[c]
		nj, ns := len(sub.jobs), len(sub.sites)
		si := &Instance{
			SiteCapacity: make([]float64, ns),
			Demand:       make([][]float64, nj),
		}
		for ls, s := range sub.sites {
			si.SiteCapacity[ls] = in.SiteCapacity[s]
		}
		if in.Weight != nil {
			si.Weight = make([]float64, nj)
		}
		if floors != nil {
			sub.floors = make([]float64, nj)
		}
		for lj, j := range sub.jobs {
			row := make([]float64, ns)
			for ls, s := range sub.sites {
				row[ls] = in.Demand[j][s]
			}
			si.Demand[lj] = row
			if si.Weight != nil {
				si.Weight[lj] = in.Weight[j]
			}
			if sub.floors != nil {
				sub.floors[lj] = floors[j]
			}
		}
		sub.in = si
	}
	return subs
}

// fillDecomposed splits the instance into connected components and solves
// each as an independent sub-instance on a bounded worker pool, merging
// the per-component allocations. It reports done=false when the instance
// has at most one component: the caller then takes the monolithic path on
// the full instance, unchanged from the pre-decomposition behavior.
func (sv *Solver) fillDecomposed(in *Instance, floors []float64) (*Allocation, bool, error) {
	tPart := time.Now()
	jobComp, ncomp := components(in)
	if ncomp <= 1 {
		// The union-find ran either way: report it, so the monolithic path
		// the caller takes next starts from the same stage as this one.
		sv.stage(StagePartition, time.Since(tPart), false)
		return nil, false, nil
	}
	start := time.Now()
	subs := buildSubInstances(in, floors, jobComp, ncomp)
	alloc := NewAllocation(in)
	sv.stage(StagePartition, time.Since(tPart), false)
	tSolve := time.Now()

	workers := sv.parallelism()
	if workers > ncomp {
		workers = ncomp
	}
	// perComp collects per-component solve wall times for detail stage
	// events; workers write disjoint indices, so no lock is needed.
	var perComp []time.Duration
	if sv.OnStage != nil {
		perComp = make([]time.Duration, ncomp)
	}
	// reps collects per-component approximate-path reports; same disjoint
	// indexing as perComp.
	reps := make([]approxReport, ncomp)
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		seqNS    atomic.Int64
		errMu    sync.Mutex
		firstErr error
	)
	worker := func() {
		defer wg.Done()
		for {
			c := int(next.Add(1)) - 1
			if c >= ncomp {
				return
			}
			sub := &subs[c]
			t0 := time.Now()
			a, rep, err := sv.fillComponent(sub.in, sub.floors)
			d := time.Since(t0)
			reps[c] = rep
			seqNS.Add(int64(d))
			if perComp != nil {
				perComp[c] = d
			}
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("core: component %d (%d jobs): %w", c, len(sub.jobs), err)
				}
				errMu.Unlock()
				return
			}
			// Rows of alloc.Share are disjoint across components, so the
			// merge needs no lock.
			for lj, j := range sub.jobs {
				row := alloc.Share[j]
				for ls, s := range sub.sites {
					row[s] = a.Share[lj][ls]
				}
			}
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, true, firstErr
	}
	for _, d := range perComp {
		sv.stage(StageSolveComponent, d, true)
	}
	if sv.OnStage != nil {
		for _, rep := range reps {
			if rep.used {
				sv.stage(StageSolveApprox, rep.d, true)
			}
		}
	}
	// The merge is folded into the workers (share rows are disjoint across
	// components), so the decomposed path emits no separate merge stage.
	sv.stage(StageSolve, time.Since(tSolve), false)

	st := SolveStats{
		Components:     ncomp,
		SequentialTime: time.Duration(seqNS.Load()),
		WallTime:       time.Since(start),
	}
	for c := range subs {
		if nj := len(subs[c].jobs); nj > st.LargestComponent {
			st.LargestComponent = nj
		}
		if reps[c].used {
			st.ApproxComponents++
			if reps[c].errBound > st.ApproxErrorBound {
				st.ApproxErrorBound = reps[c].errBound
			}
		}
	}
	if st.WallTime > 0 {
		st.Speedup = float64(st.SequentialTime) / float64(st.WallTime)
	}
	sv.recordStats(st)
	return alloc, true, nil
}
