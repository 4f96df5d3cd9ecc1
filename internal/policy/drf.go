package policy

import (
	"context"
	"math"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/multires"
)

// DRF is dominant-resource fairness behind the serving stack: the
// weighted aggregate dominant-share vector is max-min fair over all
// feasible task placements (multires.AggregateDRF — progressive filling
// with the LP feasibility oracle).
//
// The serving view is single-resource, so Allocate solves it as the K=1
// special case of the multi-resource problem; SolveMulti is the general
// entry point for vector-valued instances.
//
// Two things make DRF serviceable under churn:
//
//   - Component decomposition: jobs are partitioned by connected
//     components of the job×site demand graph and each component is
//     solved independently. This is exact *provided* dominant shares are
//     normalized against the global capacity totals
//     (multires.Instance.CapacityTotals): the feasible region is a
//     product over components, so the leximin decomposes, and the
//     normalization constant is global either way.
//   - Precomputed-result caching: each component's solve is stored under
//     a fingerprint of its exact content (and the policy parameters).
//     Component-local churn re-solves one component and serves the rest
//     from cache — the same shape as the single-resource incremental
//     path, but owned by the policy since the core solver cannot run DRF.
//
// A DRF instance is safe for concurrent use; construct one per
// controller (NewDRF) so cache state is never shared across engines.
type DRF struct {
	// Eps is the progressive-filling bisection tolerance, passed through
	// to multires.Solver (default 1e-6).
	Eps float64
	// MaxCacheEntries bounds the result cache (default 4096); the least
	// recently used entries are evicted past the bound.
	MaxCacheEntries int

	mu     sync.Mutex
	cache  map[uint64]*drfEntry
	seq    uint64
	hits   int64
	misses int64
}

// drfEntry is one cached component solve. sub is kept to verify a
// fingerprint hit against the exact content (hash collisions must lose),
// and tasks rows are immutable once stored.
type drfEntry struct {
	sub     *multires.Instance
	tasks   [][]float64
	lastUse uint64
}

// NewDRF returns a DRF policy with its own (empty) result cache.
func NewDRF() *DRF { return &DRF{} }

func (d *DRF) Name() string { return "drf" }

func (d *DRF) Capabilities() Capabilities {
	// Incremental is false: the core water-filling solver cannot run DRF,
	// so the scheduler's from-scratch path is used and the policy's own
	// component cache provides the churn win instead.
	return Capabilities{MultiResource: true}
}

func (d *DRF) Fingerprint() uint64 {
	h := fnvString(fnvOffset, "drf")
	return fnvFloat(h, d.eps())
}

func (d *DRF) eps() float64 {
	if d.Eps > 0 {
		return d.Eps
	}
	return 1e-6
}

func (d *DRF) maxEntries() int {
	if d.MaxCacheEntries > 0 {
		return d.MaxCacheEntries
	}
	return 4096
}

// Allocate solves the single-resource serving view as a K=1
// multi-resource instance: one resource, task shape 1, task counts =
// per-site demand. Tasks and resource units coincide, so the placement
// maps back to per-site shares unchanged.
func (d *DRF) Allocate(ctx context.Context, v *View) (*core.Allocation, Stats, error) {
	if err := v.Inst.Validate(); err != nil {
		return nil, Stats{}, err
	}
	in := v.Inst
	n, m := in.NumJobs(), in.NumSites()
	mi := &multires.Instance{
		SiteCapacity: make([][]float64, m),
		TaskUse:      make([][]float64, n),
		TaskCount:    in.Demand,
		Weight:       in.Weight,
	}
	for s := 0; s < m; s++ {
		mi.SiteCapacity[s] = []float64{in.SiteCapacity[s]}
	}
	for j := 0; j < n; j++ {
		mi.TaskUse[j] = unitTaskShape
	}
	alloc, st, err := d.SolveMulti(ctx, mi)
	if err != nil {
		return nil, st, err
	}
	return &core.Allocation{Inst: in, Share: alloc.Tasks}, st, nil
}

// unitTaskShape is the shared K=1 task shape: one task consumes one unit
// of the single resource.
var unitTaskShape = []float64{1}

// SolveMulti computes the DRF allocation of a multi-resource instance via
// component decomposition with global-totals normalization and the result
// cache. The returned allocation's Tasks rows are freshly assembled; the
// per-component rows they are scattered from may be cache-shared and must
// not be mutated.
func (d *DRF) SolveMulti(ctx context.Context, in *multires.Instance) (*multires.Allocation, Stats, error) {
	if err := in.Validate(); err != nil {
		return nil, Stats{}, err
	}
	n := in.NumJobs()
	out := multires.NewAllocation(in)
	if n == 0 {
		return out, Stats{Native: true}, nil
	}
	totals := in.CapacityTotals
	if totals == nil {
		totals = in.TotalCapacity()
	}

	comps := componentsOf(in)
	st := Stats{Native: true, Components: len(comps)}
	for _, comp := range comps {
		if err := ctx.Err(); err != nil {
			return nil, st, err
		}
		if len(comp.jobs) > st.Largest {
			st.Largest = len(comp.jobs)
		}
		sub, fp := d.subInstance(in, comp, totals)
		tasks, hit, err := d.solveComponent(sub, fp)
		if err != nil {
			return nil, st, err
		}
		if hit {
			st.Reused++
		} else {
			st.Resolved++
		}
		for cj, j := range comp.jobs {
			for cs, s := range comp.sites {
				out.Tasks[j][s] = tasks[cj][cs]
			}
		}
	}
	d.mu.Lock()
	st.CacheHits, st.CacheMisses = d.hits, d.misses
	d.mu.Unlock()
	return out, st, nil
}

// component is one connected component of the job×site demand graph, in
// deterministic (ascending) order.
type component struct {
	jobs  []int
	sites []int
}

// componentsOf partitions jobs by shared sites (TaskCount > 0). Jobs with
// no positive task count anywhere form no component: they can run nothing
// and stay at zero tasks.
func componentsOf(in *multires.Instance) []component {
	n, m := in.NumJobs(), in.NumSites()
	parent := make([]int, n)
	for j := range parent {
		parent[j] = j
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	siteOwner := make([]int, m)
	for s := range siteOwner {
		siteOwner[s] = -1
	}
	for j := 0; j < n; j++ {
		for s := 0; s < m; s++ {
			if in.TaskCount[j][s] <= 0 {
				continue
			}
			if siteOwner[s] < 0 {
				siteOwner[s] = j
			} else {
				union(siteOwner[s], j)
			}
		}
	}
	byRoot := map[int]*component{}
	var order []int
	for j := 0; j < n; j++ {
		active := false
		for s := 0; s < m; s++ {
			if in.TaskCount[j][s] > 0 {
				active = true
				break
			}
		}
		if !active {
			continue
		}
		r := find(j)
		c, ok := byRoot[r]
		if !ok {
			c = &component{}
			byRoot[r] = c
			order = append(order, r)
		}
		c.jobs = append(c.jobs, j)
	}
	for s := 0; s < m; s++ {
		if siteOwner[s] < 0 {
			continue
		}
		byRoot[find(siteOwner[s])].sites = append(byRoot[find(siteOwner[s])].sites, s)
	}
	out := make([]component, 0, len(order))
	for _, r := range order {
		c := byRoot[r]
		sort.Ints(c.sites)
		out = append(out, *c)
	}
	return out
}

// subInstance carves one component out of the instance, normalized
// against the global totals, and fingerprints its exact content together
// with the policy parameters.
func (d *DRF) subInstance(in *multires.Instance, c component, totals []float64) (*multires.Instance, uint64) {
	k := in.NumResources()
	sub := &multires.Instance{
		SiteCapacity:   make([][]float64, len(c.sites)),
		TaskUse:        make([][]float64, len(c.jobs)),
		TaskCount:      make([][]float64, len(c.jobs)),
		Weight:         make([]float64, len(c.jobs)),
		CapacityTotals: totals,
	}
	h := fnvUint64(d.Fingerprint(), uint64(k))
	h = fnvFloats(h, totals)
	for i, s := range c.sites {
		sub.SiteCapacity[i] = in.SiteCapacity[s]
		h = fnvFloats(h, in.SiteCapacity[s])
	}
	for i, j := range c.jobs {
		sub.TaskUse[i] = in.TaskUse[j]
		sub.Weight[i] = in.JobWeight(j)
		row := make([]float64, len(c.sites))
		for cs, s := range c.sites {
			row[cs] = in.TaskCount[j][s]
		}
		sub.TaskCount[i] = row
		h = fnvFloats(h, in.TaskUse[j])
		h = fnvFloat(h, sub.Weight[i])
		h = fnvFloats(h, row)
	}
	return sub, h
}

// solveComponent returns the component's task placement, from the cache
// when the fingerprint and exact content match, else by running the
// progressive filling and caching the result.
func (d *DRF) solveComponent(sub *multires.Instance, fp uint64) ([][]float64, bool, error) {
	d.mu.Lock()
	if e, ok := d.cache[fp]; ok && sameInstance(e.sub, sub) {
		d.seq++
		e.lastUse = d.seq
		d.hits++
		tasks := e.tasks
		d.mu.Unlock()
		return tasks, true, nil
	}
	d.misses++
	d.mu.Unlock()

	sv := &multires.Solver{Eps: d.Eps}
	alloc, err := sv.AggregateDRF(sub)
	if err != nil {
		return nil, false, err
	}

	d.mu.Lock()
	if d.cache == nil {
		d.cache = map[uint64]*drfEntry{}
	}
	d.seq++
	d.cache[fp] = &drfEntry{sub: sub, tasks: alloc.Tasks, lastUse: d.seq}
	if len(d.cache) > d.maxEntries() {
		d.evictLocked()
	}
	d.mu.Unlock()
	return alloc.Tasks, false, nil
}

// evictLocked drops the least recently used half of the cache.
func (d *DRF) evictLocked() {
	type kv struct {
		key     uint64
		lastUse uint64
	}
	all := make([]kv, 0, len(d.cache))
	for k, e := range d.cache {
		all = append(all, kv{k, e.lastUse})
	}
	sort.Slice(all, func(a, b int) bool { return all[a].lastUse < all[b].lastUse })
	for _, e := range all[:len(all)/2] {
		delete(d.cache, e.key)
	}
}

// CacheLen reports the number of cached component results (telemetry and
// tests).
func (d *DRF) CacheLen() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.cache)
}

// sameInstance compares two instances field by field — the collision
// check behind a fingerprint hit.
func sameInstance(a, b *multires.Instance) bool {
	if len(a.SiteCapacity) != len(b.SiteCapacity) || len(a.TaskUse) != len(b.TaskUse) {
		return false
	}
	for i := range a.SiteCapacity {
		if !sameRow(a.SiteCapacity[i], b.SiteCapacity[i]) {
			return false
		}
	}
	for i := range a.TaskUse {
		if !sameRow(a.TaskUse[i], b.TaskUse[i]) ||
			!sameRow(a.TaskCount[i], b.TaskCount[i]) ||
			math.Float64bits(a.Weight[i]) != math.Float64bits(b.Weight[i]) {
			return false
		}
	}
	return sameRow(a.CapacityTotals, b.CapacityTotals)
}

func sameRow(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
