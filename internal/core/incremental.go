package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/fairness"
)

// Incremental solving: re-solve only the connected components a mutation
// batch actually touched, splicing carried results for the rest.
//
// The component decomposition (partition.go) makes each connected component
// of the job×site demand graph an independent sub-problem, but a
// from-scratch solve (Solver.Solve) still re-partitions and re-solves every
// component. SolveDelta runs the same pipeline — grouping, materializer,
// worker pool, the one per-component kernel fillComponent — on just the
// components it cannot reuse. In a serving deployment most mutation
// batches are local — the paper's data-locality premise means a batch
// typically touches one job in one component — so an IncrementalSolver
// carries two pieces of state from solve to solve:
//
//   - The partition itself. Union-find runs only over the jobs of affected
//     components (those that gained, lost or changed a member, or own a
//     site a mutated job now touches); every other component keeps its
//     membership untouched. Merges and re-splits therefore cost time
//     proportional to the components involved, not the instance.
//
//   - One record per component (ComponentResult). A component no mutation
//     touched keeps its record; a touched one is re-solved.
//
// Enhanced AMF adds one rule. Its floors es_j(W) (EqualShares) depend on
// the global weight sum W, so a change to W can move the Enhanced point of
// a component no mutation touched. The kernel fills an Enhanced component
// as plain AMF first and publishes that fill when every member's aggregate
// meets its floor: the plain point is then feasible for the floored
// problem and the leximax over a larger set, so it is the Enhanced point.
// Only otherwise does it fill again above the floors, and the record is
// marked floor-bound. After a W change an untouched component keeps its
// record exactly when the record is not floor-bound and every member still
// meets its new floor — the same exact comparison (meetsFloor) the kernel
// makes, over the same sums, so the carried record is the one a
// from-scratch solve would publish, bit for bit. Everything else
// re-solves.
//
// The unit that flows out of a solve is the ComponentResult: one immutable
// record per solved component holding its members' share rows and the
// fairness partial of their aggregates. SolveDelta — the entry the
// scheduler drives — takes the names that changed and the names that
// left, and returns just the records that changed plus the fairness
// reduction over all live components, so a caller that carries its own
// share map forward does work proportional to the dirty components. Solve
// is a wrapper that derives the delta from a job-set diff and runs the
// same kernel.
//
// Share rows handed out are immutable and shared: the same row backs the
// carried record, subsequent allocations, and anything the caller
// published. Callers must treat them as read-only.

// IncrementalStats describes how the most recent IncrementalSolver.Solve
// executed, plus a lifetime count of weight-sum changes.
type IncrementalStats struct {
	// SolveStats is the decomposition record. Components counts the live
	// components after the solve; SequentialTime sums the wall times of the
	// components actually re-solved and Speedup is their worker pool's (1
	// when at most one was re-solved); WallTime covers the whole call
	// (partition maintenance and the floor checks included).
	SolveStats
	// Reused counts untouched components that kept their previous record —
	// under Enhanced AMF, across a weight-sum change too when the record
	// still meets the new floors; Solved counts components actually
	// re-solved. Reused + Solved == Components.
	Reused int
	Solved int
	// GlobalInvalidations counts the Enhanced-AMF solves that saw the
	// weight sum change, which sends every untouched component through the
	// floor check, over the solver's lifetime.
	GlobalInvalidations int64
}

// IncrementalSolver computes a kernel's allocations across a stream of
// instance revisions, re-solving only the components invalidated since the
// previous call. The zero value is ready to use. Unlike Solver,
// an IncrementalSolver is NOT safe for concurrent use: callers (the
// scheduler controller) serialize Solve/LastStats/Reset externally.
type IncrementalSolver struct {
	// Solver is the underlying component solver (default NewSolver()); its
	// scratch pool keeps flow-network arenas warm across components.
	Solver *Solver
	// Kernel is the per-component discipline (default KernelAMF). Carried
	// results belong to the kernel they were solved under: Reset after
	// changing it.
	Kernel Kernel

	gen      uint64
	jobs     map[string]*incComp // job name -> component (nil: zero demand)
	comps    map[int]*incComp
	nextID   int
	siteComp []int // site -> owning component id, -1 unowned
	uf       siteUnion
	caps     []float64 // the site capacities the carried state was solved under
	prevWSum float64
	haveWSum bool
	stats    IncrementalStats
	zeroRow  []float64 // shared immutable all-zero row (zero-demand jobs)
}

// incComp is one live connected component carried across solves.
type incComp struct {
	id   int
	jobs []string // member job names, sorted to instance order at use
	// rows[k] is jobs[k]'s instance row as of generation rowsGen; rows
	// shift between solves, so orderMembers refreshes them before use.
	// sites are ascending global site indices.
	compGroup
	rowsGen uint64
	dirty   bool

	result *ComponentResult
}

// ComponentResult is one component's solution: an immutable full-width
// share row per member job and the fairness partial of the members'
// aggregates, recorded when the component was solved. Records are shared
// by pointer between successive solves and whatever the caller published;
// Shares and Fairness must be treated as read-only.
type ComponentResult struct {
	// Shares maps each member job to its share row.
	Shares map[string][]float64
	// Fairness summarizes the members' aggregate allocations and
	// weight-normalized aggregates.
	Fairness fairness.Partial

	// floorBound marks an Enhanced-AMF record filled above its floors: the
	// plain fill missed one. Such a record re-solves on any weight-sum
	// change; a record without it is reused while its members meet their
	// floors.
	floorBound bool
}

// Delta names what changed in the instance since the previous solve.
type Delta struct {
	// Changed names every job that was added or whose weight, demand or
	// work changed. Every name must be live in the instance.
	Changed []string
	// Removed names every job that left the instance. Names the solver
	// never saw are ignored; a name may appear in both lists (removed and
	// re-added under the same name).
	Removed []string
	// Row maps a live job name to its row in the instance (negative if
	// unknown). It is consulted only for changed jobs and the members of
	// components they touch.
	Row func(name string) int
}

// Update is what one SolveDelta changed.
type Update struct {
	// Full reports that the solver ran without carried state (first solve,
	// or site count/capacities changed): Results then holds every live
	// component and Zero every zero-demand job, whatever the Delta said.
	Full bool
	// Results are the records of the components re-solved this call, whose
	// rows may differ from the previous solve, in ascending component-id
	// order.
	Results []*ComponentResult
	// Zero names the changed jobs that now demand nothing: they belong to
	// no component and hold the all-zero row.
	Zero []string
	// Fairness reduces the partials of all live components, in ascending
	// component-id order, plus the zero-demand jobs.
	Fairness fairness.Partial
}

// Reset drops all carried state (partition and results); the next Solve
// runs from scratch. Cumulative counters are kept.
func (x *IncrementalSolver) Reset() {
	x.caps = nil
	x.jobs = nil
	x.comps = nil
	x.siteComp = nil
	x.haveWSum = false
}

// LastStats reports the record of the most recent Solve.
func (x *IncrementalSolver) LastStats() IncrementalStats { return x.stats }

// Solve computes the allocation for in, reusing every component result the
// mutations since the previous Solve cannot have invalidated. It is a
// wrapper over SolveDelta: it derives the delta from a diff of the job set
// against the previous revision and materializes the dense allocation.
//
// Contract: in.JobName must hold a unique non-empty name per job — names
// are how jobs are identified across revisions. dirty must contain the
// name of every job whose weight, demand or work changed since the
// previous Solve (added jobs may appear but are detected regardless, as
// are removals, via the job-set diff). Site count and capacities are
// expected to be stable across calls; if they change, all carried state is
// dropped and the solve runs from scratch.
//
// The returned allocation's share rows are immutable views shared with the
// solver's records and with previous/future results: callers must not
// mutate them.
func (x *IncrementalSolver) Solve(in *Instance, dirty map[string]bool) (*Allocation, error) {
	n := in.NumJobs()
	if len(in.JobName) != n {
		return nil, fmt.Errorf("core: incremental solve needs a name per job (%d names, %d jobs)", len(in.JobName), n)
	}
	idx := make(map[string]int, n)
	for i, name := range in.JobName {
		if name == "" {
			return nil, fmt.Errorf("core: incremental solve needs non-empty job names (job %d)", i)
		}
		if _, dup := idx[name]; dup {
			return nil, fmt.Errorf("core: incremental solve needs unique job names (%q duplicated)", name)
		}
		idx[name] = i
	}
	d := Delta{Row: func(name string) int {
		if i, ok := idx[name]; ok {
			return i
		}
		return -1
	}}
	for name := range x.jobs {
		if _, ok := idx[name]; !ok {
			d.Removed = append(d.Removed, name)
		}
	}
	for _, name := range in.JobName {
		if _, known := x.jobs[name]; !known || dirty[name] {
			d.Changed = append(d.Changed, name)
		}
	}
	if _, err := x.SolveDelta(in, d); err != nil {
		return nil, err
	}
	alloc := &Allocation{Inst: in, Share: make([][]float64, n)}
	for i, name := range in.JobName {
		if alloc.Share[i] = x.Row(name); alloc.Share[i] == nil {
			return nil, fmt.Errorf("core: incremental state lost shares for job %q", name)
		}
	}
	return alloc, nil
}

// Row returns the job's share row from the most recent solve: its
// component's immutable row, the shared all-zero row for a zero-demand
// job, nil for a name the solver does not hold.
func (x *IncrementalSolver) Row(name string) []float64 {
	c, ok := x.jobs[name]
	switch {
	case !ok:
		return nil
	case c == nil:
		return x.zeroRow
	case c.result == nil:
		return nil
	}
	return c.result.Shares[name]
}

// SolveDelta is the solve kernel: it brings the carried partition and
// results up to date with in, given the names that changed and left since
// the previous call, and returns the component records that changed. Work
// is proportional to the components the delta touches plus one pass over
// the component list; nothing walks the whole job set unless carried state
// resets (Update.Full) or, under Enhanced AMF, the floors must be
// recomputed (they depend on the global weight sum).
//
// in must satisfy Solve's naming contract; the delta form trusts the
// caller for it, and for the shape of rows it did not name as changed
// (they were validated by the solve that last saw them change).
func (x *IncrementalSolver) SolveDelta(in *Instance, delta Delta) (*Update, error) {
	start := time.Now()
	n, m := in.NumJobs(), in.NumSites()
	if len(in.JobName) != n {
		return nil, fmt.Errorf("core: incremental solve needs a name per job (%d names, %d jobs)", len(in.JobName), n)
	}
	sv := x.Solver
	if sv == nil {
		sv = NewSolver()
		x.Solver = sv
	}

	fresh := x.jobs == nil || !sameBits(x.caps, in.SiteCapacity)
	// Validation is itself incremental: a full O(n·m) Instance.Validate
	// only when carried state resets; afterwards just the changed rows are
	// shape-checked and float-scanned (validateJobData below) — clean rows
	// were validated by the solve that last saw them change. (Those scans
	// run inside the diff loop and are accounted to the partition stage.)
	tValidate := time.Now()
	if fresh {
		if err := in.Validate(); err != nil {
			return nil, err
		}
	} else {
		if in.Weight != nil && len(in.Weight) != n {
			return nil, fmt.Errorf("core: %d weights for %d jobs", len(in.Weight), n)
		}
		if in.Work != nil && len(in.Work) != n {
			return nil, fmt.Errorf("core: %d work rows for %d jobs", len(in.Work), n)
		}
	}
	sv.stage(StageValidate, time.Since(tValidate), false)
	changed, removed := delta.Changed, delta.Removed
	if fresh {
		x.caps = append(x.caps[:0], in.SiteCapacity...)
		x.jobs = make(map[string]*incComp, n)
		x.comps = map[int]*incComp{}
		x.siteComp = make([]int, m)
		for s := range x.siteComp {
			x.siteComp[s] = -1
		}
		x.zeroRow = make([]float64, m)
		x.haveWSum = false
		// Nothing is carried: every job is new, whatever the delta named.
		changed, removed = in.JobName, nil
	}
	x.gen++
	tPartition := time.Now()

	// Enhanced-AMF floors are computed against the FULL instance
	// (EqualShares depends on the global weight sum) and sliced per
	// component. A weight-sum change moves every floor: each untouched
	// component is checked against its new floors.
	var floors []float64
	globalInval := false
	if x.Kernel == KernelEnhanced {
		wsum := in.ExternalWeight
		for j := 0; j < n; j++ {
			wsum += in.JobWeight(j)
		}
		floors = EqualShares(in)
		if x.haveWSum && math.Float64bits(wsum) != math.Float64bits(x.prevWSum) {
			globalInval = true
			x.stats.GlobalInvalidations++
		}
		x.prevWSum, x.haveWSum = wsum, true
	}

	// Locate and validate the changed rows before touching carried state,
	// so a rejected delta leaves the solver exactly as it was.
	dirtyIdx := make([]int, len(changed))
	for k, name := range changed {
		i := k // fresh: changed is in.JobName itself
		if !fresh {
			if i = delta.Row(name); i < 0 || i >= n {
				return nil, fmt.Errorf("core: changed job %q is not in the instance", name)
			}
			if err := validateJobData(in, i, m); err != nil {
				return nil, err
			}
		}
		dirtyIdx[k] = i
	}

	// Close over the affected components: any that lost a member, contain
	// a changed member, or own a site a changed job now touches (merge).
	// A fresh solve carries no component to affect.
	affected := map[*incComp]bool{}
	for _, name := range removed {
		if c, ok := x.jobs[name]; ok {
			if c != nil {
				affected[c] = true
			}
			delete(x.jobs, name)
		}
	}
	if !fresh {
		for k, name := range changed {
			if c := x.jobs[name]; c != nil {
				affected[c] = true
			}
			for s, dem := range in.Demand[dirtyIdx[k]] {
				if dem > 0 {
					if cid := x.siteComp[s]; cid >= 0 {
						affected[x.comps[cid]] = true
					}
				}
			}
		}
	}
	if len(dirtyIdx) > 0 || len(affected) > 0 {
		x.repartition(in, delta.Row, affected, dirtyIdx)
	}

	// Classify components: untouched ones keep their record — after a
	// weight-sum change only while it still meets the floors — and the rest
	// are solved as independent sub-instances on the worker pool.
	ids := make([]int, 0, len(x.comps))
	for id := range x.comps {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	st := IncrementalStats{SolveStats: SolveStats{Components: len(x.comps)}}
	var toSolve []*incComp
	for _, id := range ids {
		c := x.comps[id]
		if nj := len(c.jobs); nj > st.LargestComponent {
			st.LargestComponent = nj
		}
		if !c.dirty && c.result != nil && (!globalInval || x.meetsFloors(delta.Row, c, floors)) {
			st.Reused++
			continue
		}
		x.orderMembers(delta.Row, c)
		c.result = nil
		c.dirty = true
		toSolve = append(toSolve, c)
	}
	st.Solved = len(toSolve)
	sv.stage(StagePartition, time.Since(tPartition), false)
	tSolve := time.Now()

	groups := make([]compGroup, len(toSolve))
	for k, c := range toSolve {
		groups[k] = c.compGroup
	}
	runs, pst, err := sv.solveComponents(in, groups, x.Kernel, floors)
	if err != nil {
		// Every component to solve stays dirty with no result, so the
		// next call solves it again.
		return nil, err
	}
	for k, c := range toSolve {
		c.result = x.newResult(in, c, runs[k])
		c.dirty = false
	}
	pst.Components, pst.LargestComponent = st.Components, st.LargestComponent
	st.SolveStats = pst
	sv.stage(StageSolve, time.Since(tSolve), false)
	tMerge := time.Now()

	// Merge: hand out the records that changed, and reduce the fairness
	// partials over the component list. The reduction is recomputed from
	// the records every call — never adjusted in place — so it cannot
	// drift, and its order (ascending id) makes it deterministic.
	up := &Update{Full: fresh, Results: make([]*ComponentResult, len(toSolve))}
	for k, c := range toSolve {
		up.Results[k] = c.result
	}
	for _, name := range changed {
		if c, ok := x.jobs[name]; ok && c == nil {
			up.Zero = append(up.Zero, name)
		}
	}
	members := 0
	for _, id := range ids {
		c := x.comps[id]
		members += len(c.jobs)
		up.Fairness.Merge(c.result.Fairness)
	}
	up.Fairness.ObserveZeros(len(x.jobs) - members)

	sv.stage(StageMerge, time.Since(tMerge), false)

	st.WallTime = time.Since(start)
	st.GlobalInvalidations = x.stats.GlobalInvalidations
	x.stats = st
	return up, nil
}

// repartition re-runs the grouping over just the affected components' jobs
// plus the mutated/new jobs, dissolving the affected components and
// forming their replacements. Untouched components keep their membership,
// sites and results. repartition takes ownership of dirtyIdx.
func (x *IncrementalSolver) repartition(in *Instance, row func(string) int, affected map[*incComp]bool, dirtyIdx []int) {
	rows := dirtyIdx
	for c := range affected {
		for _, name := range c.jobs {
			// Members that left were already dropped from x.jobs, so only
			// live names are looked up.
			if x.jobs[name] == c {
				rows = append(rows, row(name))
			}
		}
		for _, s := range c.sites {
			if x.siteComp[s] == c.id {
				x.siteComp[s] = -1
			}
		}
		delete(x.comps, c.id)
	}
	slices.Sort(rows)
	rows = slices.Compact(rows)

	// Every site these rows demand is unowned here: its owner, if any, was
	// dissolved above.
	groups, zero := x.uf.group(in, rows)
	for _, i := range zero {
		x.jobs[in.JobName[i]] = nil // zero demand: no component, zero shares
	}
	for _, g := range groups {
		c := &incComp{id: x.nextID, jobs: make([]string, len(g.rows)), compGroup: g, rowsGen: x.gen, dirty: true}
		x.nextID++
		x.comps[c.id] = c
		for k, i := range g.rows {
			c.jobs[k] = in.JobName[i]
			x.jobs[c.jobs[k]] = c
		}
		for _, s := range g.sites {
			x.siteComp[s] = c.id
		}
	}
}

// orderMembers brings c.rows up to date with the current instance and
// sorts the members into instance order — the order the sub-instance is
// built in, so results are reproducible. Components formed this
// generation got both from repartition.
func (x *IncrementalSolver) orderMembers(row func(string) int, c *incComp) {
	if c.rowsGen == x.gen {
		return
	}
	for k, name := range c.jobs {
		c.rows[k] = row(name)
	}
	sort.Sort(membersByRow{c})
	c.rowsGen = x.gen
}

type membersByRow struct{ c *incComp }

func (m membersByRow) Len() int           { return len(m.c.jobs) }
func (m membersByRow) Less(a, b int) bool { return m.c.rows[a] < m.c.rows[b] }
func (m membersByRow) Swap(a, b int) {
	m.c.jobs[a], m.c.jobs[b] = m.c.jobs[b], m.c.jobs[a]
	m.c.rows[a], m.c.rows[b] = m.c.rows[b], m.c.rows[a]
}

// newResult records component c's solve: its local allocation scattered
// into immutable full-width rows, and the fairness partial of the members'
// aggregates.
func (x *IncrementalSolver) newResult(in *Instance, c *incComp, run componentRun) *ComponentResult {
	res := &ComponentResult{
		Shares:     make(map[string][]float64, len(c.jobs)),
		floorBound: run.floorBound,
	}
	for lj, name := range c.jobs {
		// The aggregate is summed over the compact local row, in ascending
		// site order — the same value a walk of the full-width row yields,
		// since every other entry is an exact zero.
		row := make([]float64, len(x.caps))
		var agg float64
		for ls, s := range c.sites {
			v := run.alloc.Share[lj][ls]
			row[s] = v
			agg += v
		}
		res.Shares[name] = row
		res.Fairness.Observe(agg, in.JobWeight(c.rows[lj]))
	}
	return res
}

// meetsFloors reports whether component c's carried record is still its
// Enhanced-AMF point under floors: it was published without floors and
// every member's aggregate meets its floor. O(members · sites).
func (x *IncrementalSolver) meetsFloors(row func(string) int, c *incComp, floors []float64) bool {
	if c.result.floorBound {
		return false
	}
	for _, name := range c.jobs {
		if !meetsFloor(c.result.Shares[name], c.sites, floors[row(name)]) {
			return false
		}
	}
	return true
}

// validateJobData shape-checks and float-scans one job's weight, demand
// and work rows — the per-changed-job slice of Instance.Validate.
func validateJobData(in *Instance, j, m int) error {
	if len(in.Demand[j]) != m {
		return fmt.Errorf("core: job %d has %d demand entries, want %d", j, len(in.Demand[j]), m)
	}
	if in.Work != nil && len(in.Work[j]) != m {
		return fmt.Errorf("core: job %d has %d work entries, want %d", j, len(in.Work[j]), m)
	}
	if in.Weight != nil {
		if w := in.Weight[j]; w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("core: job %d has invalid weight %g", j, w)
		}
	}
	for s, d := range in.Demand[j] {
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return fmt.Errorf("core: job %d has invalid demand %g at site %d", j, d, s)
		}
	}
	if in.Work != nil {
		for s, w := range in.Work[j] {
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("core: job %d has invalid work %g at site %d", j, w, s)
			}
		}
	}
	return nil
}

// sameBits reports whether a and b hold the same floats bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
