// Package scheduler provides a long-running allocation controller on top
// of the AMF allocators: the integration surface a cluster manager (YARN-,
// Mesos- or Kubernetes-style) would embed. It maintains a live job set,
// re-solves the fair allocation when the set or the demand topology
// changes, applies hysteresis so progress reports do not cause allocation
// churn, and exposes the current shares for actuation.
//
// The controller is deliberately synchronous and deterministic: mutations
// record the touched job IDs in a dirty set, and Allocation()/Shares()
// lazily re-solve. The allocation discipline is a policy.Policy chosen
// per controller (and switchable at runtime via SetPolicy). Every policy
// is a per-component kernel of the core solver, so every solve runs
// through one core.IncrementalSolver running the policy's kernel: only the
// connected components the dirty jobs belong to are re-solved, the rest
// are spliced from carried or cached results. All methods are safe for
// concurrent use.
//
// What a solve hands out is carried, not rebuilt: the instance view is a
// cached shell patched copy-on-write per mutation, and the share map is
// the previous map with only the re-solved components' rows replaced (see
// viewLocked and installDeltaLocked).
package scheduler

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fairness"
	"repro/internal/policy"
)

// Sentinel errors for callers that need to distinguish failure kinds
// (e.g. to map them onto HTTP status codes).
var (
	// ErrUnknownJob is returned for operations on a job ID the controller
	// does not hold.
	ErrUnknownJob = errors.New("scheduler: unknown job")
	// ErrDuplicateJob is returned when adding an ID that already exists.
	ErrDuplicateJob = errors.New("scheduler: job already exists")
)

// Config parameterizes a Scheduler.
type Config struct {
	// SiteCapacity is the per-site resource capacity (required).
	SiteCapacity []float64
	// Policy selects the allocation discipline (default policy.AMF). Use
	// policy.ForName to look one up by its wire name.
	Policy policy.Policy
	// Solver overrides the default core solver.
	Solver *core.Solver
	// DisableIncremental forces every solve to run from scratch: the
	// incremental solver drops its carried state before each solve, so
	// every component is dirty. Used by benchmarks and as the reference in
	// equivalence tests.
	DisableIncremental bool
	// ApproxEpsilon and ApproxThreshold arm the approximate water-filling
	// fast path on the underlying solver (see core.Solver): components
	// larger than ApproxThreshold jobs+edges solve approximately with
	// per-job aggregates within ApproxEpsilon of the instance scale. Both
	// zero (the default) keeps every solve exact. Ignored when Solver is
	// supplied with its own knobs set.
	ApproxEpsilon   float64
	ApproxThreshold int
	// OnSolve, when set, is invoked after every allocator run with its
	// wall-clock duration — the instrumentation hook internal/serve uses to
	// feed solve-latency histograms. It is called with the controller's
	// mutex held and must not call back into the Scheduler.
	OnSolve func(time.Duration)
}

// Job is the controller's view of one running job. The JSON form is the
// snapshot wire format.
type Job struct {
	ID     string  `json:"id"`
	Weight float64 `json:"weight"`
	// Demand[s] is the job's maximum useful parallelism at site s.
	Demand []float64 `json:"demand"`
	// Remaining[s] is the outstanding work at site s; when it reaches zero
	// the site is dropped from the job's demand.
	Remaining []float64 `json:"remaining"`

	// instDemand/instWork are the immutable rows installed into solver
	// views (see viewLocked). They are snapshots of Demand/Remaining,
	// rebuilt lazily after a mutation (nil = stale); once installed in a
	// view they are never written again, so published snapshots stay
	// intact while the mutable rows above keep changing.
	instDemand []float64
	instWork   []float64
	// row is the job's row in the cached view; meaningful only while the
	// view is current (viewLocked just returned).
	row int
}

// Stats reports controller activity counters. It is the single source of
// truth for solve accounting: /v1/stats and the internal/obs metrics both
// report these numbers.
type Stats struct {
	// Solves counts allocator invocations.
	Solves int
	// Skipped counts queries served from the cached allocation.
	Skipped int
	// Jobs is the current number of active jobs.
	Jobs int
	// Completed counts jobs that finished (all remaining work zero).
	Completed int
	// LastSolve is the wall-clock duration of the most recent allocator
	// run (zero if the controller has never solved).
	LastSolve time.Duration
	// TotalSolveTime accumulates wall-clock time spent in the allocator.
	TotalSolveTime time.Duration
	// LastComponents is the number of connected components of the demand
	// graph the most recent solve decomposed into (see core.SolveStats).
	LastComponents int
	// LastLargestComponent is the job count of the largest component of
	// the most recent solve.
	LastLargestComponent int
	// LastSpeedup is the parallel speedup of the most recent solve's
	// worker pool (sequential component time / pool wall time; 1 when at
	// most one component was re-solved).
	LastSpeedup float64
	// LastReused is the number of components the most recent solve did NOT
	// re-solve: spliced from the previous solve's results, under Enhanced
	// AMF across a weight-sum change too while their floors do not bind.
	// Zero for from-scratch solves.
	LastReused int
	// LastResolved is the number of components the most recent solve
	// actually re-solved.
	LastResolved int
	// CacheHits and CacheMisses are always 0; kept for the frozen bench.
	// The solver keeps no result cache.
	CacheHits   int64
	CacheMisses int64
	// GlobalInvalidations counts Enhanced-AMF solves that saw the weight
	// sum change, sending every untouched component through the floor
	// check.
	GlobalInvalidations int64
	// LastApproxComponents is how many components of the most recent solve
	// routed through the approximate water-filling fast path;
	// LastApproxErrorBound is their largest certified per-job deviation
	// from the exact allocation (absolute resource units). Both zero when
	// the most recent solve was fully exact.
	LastApproxComponents int
	LastApproxErrorBound float64
}

// Scheduler is the live allocation controller.
type Scheduler struct {
	mu  sync.Mutex
	cfg Config
	// order is insertion order with "" tombstones left by removals;
	// orderIdx maps a live job ID to its slot and holes counts tombstones.
	// compactLocked squeezes the holes out when they accumulate, keeping
	// removal O(1) amortized instead of an O(n) scan per removal.
	order    []string
	orderIdx map[string]int
	holes    int
	jobs     map[string]*Job
	// shares holds the current allocation. The map and its rows are
	// immutable once installed — a solve installs a NEW map, and nothing
	// writes the old one again, so the map handed to Resolve callers is a
	// valid snapshot for as long as they hold it. Between a removal and the
	// next solve it may still list the removed job; sc.jobs decides
	// existence. fair is the fairness partial of exactly these rows.
	shares map[string][]float64
	fair   fairness.Partial
	// dirty is the set of job IDs mutated since the last solve: the delta
	// the incremental solver is owed. needSolve records whether anything
	// the served allocation depends on changed since the last solve. The
	// two differ both ways: removals, the external weight and the solver
	// knobs need a solve without dirtying a job, and progress under the
	// JCT kernel dirties its job without needing one (hysteresis).
	dirty     map[string]bool
	needSolve bool
	// inc runs every solve under the policy's kernel. Anything that
	// invalidates what it carries — a policy or knob switch, a restore, a
	// failed solve — Resets it, so its next Update is Full.
	inc *core.IncrementalSolver
	// removed lists the jobs dropped since the incremental solver last ran
	// — with dirty, the delta it is owed.
	removed []string
	capRow  []float64 // immutable capacity row shared by all views
	// view is the cached instance shell (nil: rebuild on next use). It is
	// immutable once handed out; mutations since are recorded — stale lists
	// jobs whose slot must be refreshed, order[viewOrder:] the jobs to
	// append — and applied copy-on-write by viewLocked.
	view      *core.Instance
	viewOrder int
	stale     []string
	// externalWeight is the share weight held by jobs on other cluster
	// shards (core.Instance.ExternalWeight); zero standalone.
	externalWeight float64
	stats          Stats
}

// New returns an empty controller.
func New(cfg Config) (*Scheduler, error) {
	if len(cfg.SiteCapacity) == 0 {
		return nil, fmt.Errorf("scheduler: no sites")
	}
	for s, c := range cfg.SiteCapacity {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("scheduler: invalid capacity %g at site %d", c, s)
		}
	}
	if err := validateApproxConfig(cfg.ApproxEpsilon, cfg.ApproxThreshold); err != nil {
		return nil, err
	}
	if cfg.Policy == nil {
		cfg.Policy = policy.AMF
	}
	if cfg.Solver == nil {
		cfg.Solver = &core.Solver{SkipJCTRefine: true}
	}
	if cfg.ApproxEpsilon != 0 || cfg.ApproxThreshold != 0 {
		cfg.Solver.ApproxEpsilon = cfg.ApproxEpsilon
		cfg.Solver.ApproxThreshold = cfg.ApproxThreshold
	} else {
		cfg.ApproxEpsilon = cfg.Solver.ApproxEpsilon
		cfg.ApproxThreshold = cfg.Solver.ApproxThreshold
	}
	sc := &Scheduler{
		cfg:      cfg,
		orderIdx: make(map[string]int),
		jobs:     make(map[string]*Job),
		shares:   make(map[string][]float64),
		dirty:    make(map[string]bool),
		capRow:   append([]float64(nil), cfg.SiteCapacity...),
		inc:      &core.IncrementalSolver{Solver: cfg.Solver, Kernel: cfg.Policy.Kernel()},
	}
	return sc, nil
}

// resetSolverLocked drops everything the incremental solver carries: its
// next solve is a full one, whatever the delta says.
func (sc *Scheduler) resetSolverLocked() {
	sc.inc.Reset()
	sc.removed = nil
}

// PolicyName reports the active policy's wire name.
func (sc *Scheduler) PolicyName() string {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.cfg.Policy.Name()
}

// GlobalWeightFloors reports whether the active policy floors every job
// at its global equal share (Enhanced-AMF semantics). Explanations use it
// to decide whether to derive and report floor evidence.
func (sc *Scheduler) GlobalWeightFloors() bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.cfg.Policy.Capabilities().GlobalWeightFloors
}

// Explain derives the allocation explanation for the current job set: it
// re-solves if needed and explains the installed shares against the same
// instance view under one lock acquisition. Standalone callers (tests,
// read replicas) use this directly; the serving engine instead explains
// its published RCU snapshot so the evidence matches what readers see.
func (sc *Scheduler) Explain() (*core.Explanation, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if err := sc.solveLocked(); err != nil {
		return nil, err
	}
	in := sc.viewLocked()
	share := make([][]float64, len(in.JobName))
	for i, id := range in.JobName {
		share[i] = sc.shares[id]
		if share[i] == nil {
			share[i] = make([]float64, in.NumSites())
		}
	}
	var floors []float64
	if sc.cfg.Policy.Capabilities().GlobalWeightFloors {
		floors = core.EqualShares(in)
	}
	return core.Explain(in, share, floors), nil
}

// SetPolicyName switches the allocation discipline at runtime; see
// SetPolicy.
func (sc *Scheduler) SetPolicyName(name string) error {
	p, err := policy.ForName(name)
	if err != nil {
		return err
	}
	return sc.SetPolicy(p)
}

// SetPolicy switches the allocation discipline at runtime. The switch is
// a clean break: the solver takes the new policy's kernel and drops all
// carried state, and the next query runs a full resolve — no row computed
// under the old discipline can survive. Setting the active policy again
// is a no-op.
func (sc *Scheduler) SetPolicy(p policy.Policy) error {
	if p == nil {
		return fmt.Errorf("scheduler: nil policy")
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.setPolicyLocked(p)
	return nil
}

func (sc *Scheduler) setPolicyLocked(p policy.Policy) {
	old := sc.cfg.Policy
	if p.Name() == old.Name() {
		return
	}
	sc.cfg.Policy = p
	sc.inc.Kernel = p.Kernel()
	sc.resetSolverLocked()
	clear(sc.dirty)
	sc.needSolve = true
}

// NumSites reports the number of sites the controller manages.
func (sc *Scheduler) NumSites() int { return len(sc.cfg.SiteCapacity) }

// markDirtyLocked records that a job's solver-relevant state changed.
func (sc *Scheduler) markDirtyLocked(id string) {
	sc.dirty[id] = true
	sc.needSolve = true
}

// markStaleLocked records that a job's slot in the cached view no longer
// matches the job. With a rebuild already pending there is nothing to
// patch, and once more patches are queued than the view has slots (nobody
// has asked for the view in a long while) a rebuild is the cheaper way.
func (sc *Scheduler) markStaleLocked(id string) {
	switch {
	case sc.view == nil:
	case len(sc.stale) >= len(sc.order):
		sc.view, sc.stale = nil, sc.stale[:0]
	default:
		sc.stale = append(sc.stale, id)
	}
}

// JobSpec describes one job registration: the argument form shared by
// AddJob, the atomic bulk AddJobs, and the WAL's logged mutations.
type JobSpec struct {
	ID     string    `json:"id"`
	Weight float64   `json:"weight,omitempty"`
	Demand []float64 `json:"demand"`
	// Work may be nil, meaning work == demand.
	Work []float64 `json:"work,omitempty"`
}

// validateSpecLocked checks one registration against the current state
// without mutating anything.
func (sc *Scheduler) validateSpecLocked(sp JobSpec) error {
	if sp.ID == "" {
		return fmt.Errorf("scheduler: job ID must be non-empty")
	}
	if _, ok := sc.jobs[sp.ID]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateJob, sp.ID)
	}
	if len(sp.Demand) != sc.NumSites() {
		return fmt.Errorf("scheduler: job %q has %d demand entries for %d sites",
			sp.ID, len(sp.Demand), sc.NumSites())
	}
	if sp.Work != nil && len(sp.Work) != sc.NumSites() {
		return fmt.Errorf("scheduler: job %q has %d work entries for %d sites",
			sp.ID, len(sp.Work), sc.NumSites())
	}
	for s, d := range sp.Demand {
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return fmt.Errorf("scheduler: job %q invalid demand %g at site %d", sp.ID, d, s)
		}
	}
	return nil
}

// addSpecLocked registers a validated spec.
func (sc *Scheduler) addSpecLocked(sp JobSpec) {
	weight := sp.Weight
	if weight <= 0 {
		weight = 1
	}
	j := &Job{
		ID:     sp.ID,
		Weight: weight,
		Demand: append([]float64(nil), sp.Demand...),
	}
	if sp.Work != nil {
		j.Remaining = append([]float64(nil), sp.Work...)
	} else {
		j.Remaining = append([]float64(nil), sp.Demand...)
	}
	sc.jobs[sp.ID] = j
	sc.orderIdx[sp.ID] = len(sc.order)
	sc.order = append(sc.order, sp.ID)
	sc.markDirtyLocked(sp.ID)
}

// AddJob registers a job. work may be nil, meaning work == demand.
// Weight <= 0 defaults to 1.
func (sc *Scheduler) AddJob(id string, weight float64, demand, work []float64) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sp := JobSpec{ID: id, Weight: weight, Demand: demand, Work: work}
	if err := sc.validateSpecLocked(sp); err != nil {
		return err
	}
	sc.addSpecLocked(sp)
	return nil
}

// BatchError reports an atomic bulk registration that was rejected.
// Errs is index-aligned with the submitted specs: nil entries were
// individually valid but aborted because a sibling failed.
type BatchError struct {
	Errs []error
}

func (e *BatchError) Error() string {
	failed := 0
	var first error
	for _, err := range e.Errs {
		if err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	return fmt.Sprintf("scheduler: batch rejected, %d of %d jobs invalid (first: %v)",
		failed, len(e.Errs), first)
}

// AddJobs atomically registers every spec or none: all specs are
// validated against the current state (and against each other) before
// anything is applied, so a rejected batch leaves the controller
// untouched. On rejection the returned error is a *BatchError with
// per-spec detail.
func (sc *Scheduler) AddJobs(specs []JobSpec) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	errs := make([]error, len(specs))
	failed := false
	seen := make(map[string]bool, len(specs))
	for i, sp := range specs {
		err := sc.validateSpecLocked(sp)
		if err == nil && seen[sp.ID] {
			err = fmt.Errorf("%w: %q duplicated within the batch", ErrDuplicateJob, sp.ID)
		}
		seen[sp.ID] = true
		if err != nil {
			errs[i] = err
			failed = true
		}
	}
	if failed {
		return &BatchError{Errs: errs}
	}
	for _, sp := range specs {
		sc.addSpecLocked(sp)
	}
	return nil
}

// RemoveJob deregisters a job (e.g. cancelled).
func (sc *Scheduler) RemoveJob(id string) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if _, ok := sc.jobs[id]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	sc.removeLocked(id)
	sc.needSolve = true
	return nil
}

func (sc *Scheduler) removeLocked(id string) {
	delete(sc.jobs, id)
	delete(sc.dirty, id) // a removal is its own entry in the solver's delta
	sc.view = nil        // rows shift: the shell is rebuilt on next use
	sc.removed = append(sc.removed, id)
	// The list is consumed by the next solve. If none comes (nobody reads)
	// it must not grow with every removal forever: past a couple of
	// job-set turnovers, dropping the solver's carried state is cheaper
	// than describing what left it.
	if len(sc.removed) > 2*len(sc.order)+64 {
		sc.resetSolverLocked()
	}
	if i, ok := sc.orderIdx[id]; ok {
		sc.order[i] = ""
		sc.holes++
		delete(sc.orderIdx, id)
	}
	if sc.holes > 32 && sc.holes*2 > len(sc.order) {
		sc.compactLocked()
	}
}

// compactLocked squeezes tombstones out of the insertion order. Relative
// order of live jobs is preserved, so instances stay deterministic.
func (sc *Scheduler) compactLocked() {
	live := sc.order[:0]
	for _, id := range sc.order {
		if id == "" {
			continue
		}
		sc.orderIdx[id] = len(live)
		live = append(live, id)
	}
	sc.order = live
	sc.holes = 0
}

// ReportProgress subtracts completed work per site. The allocation is
// re-solved only when the demand topology changes — a site's work running
// out, or the whole job completing — so steady progress does not churn
// the allocation (hysteresis). It reports whether the job completed.
//
// Under the JCT kernel, the one kernel that reads outstanding work, steady
// progress also dirties the job without forcing a solve: whichever solve
// comes next re-splits the job's component with its current work, as a
// from-scratch solve would.
func (sc *Scheduler) ReportProgress(id string, done []float64) (completed bool, err error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	j, ok := sc.jobs[id]
	if !ok {
		return false, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	if len(done) != sc.NumSites() {
		return false, fmt.Errorf("scheduler: progress has %d entries for %d sites",
			len(done), sc.NumSites())
	}
	for s, d := range done {
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return false, fmt.Errorf("scheduler: invalid progress %g at site %d", d, s)
		}
	}
	anyLeft := false
	for s, d := range done {
		if j.Remaining[s] <= 0 {
			continue
		}
		j.Remaining[s] -= d
		if j.instWork != nil {
			j.instWork = nil // published views must see fresh remaining work
			sc.markStaleLocked(id)
		}
		// Exhaustion tolerance is relative to the work's own magnitude: a
		// job with ~1e12 outstanding work accumulates float residue far
		// above any absolute epsilon, and an absolute 1e-12 would leave
		// such sites demanding forever.
		if j.Remaining[s] <= 1e-12*math.Max(1, j.Remaining[s]+d) {
			j.Remaining[s] = 0
			j.Demand[s] = 0 // site exhausted: topology change
			j.instDemand = nil
			sc.markDirtyLocked(id)
		}
		if j.Remaining[s] > 0 {
			anyLeft = true
		}
	}
	if !anyLeft {
		sc.removeLocked(id)
		sc.stats.Completed++
		sc.needSolve = true
		return true, nil
	}
	if sc.inc.Kernel == core.KernelJCT {
		sc.dirty[id] = true
	}
	return false, nil
}

// UpdateWeight changes a job's share weight at runtime (e.g. a priority
// bump). Weight <= 0 resets to 1.
func (sc *Scheduler) UpdateWeight(id string, weight float64) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	j, ok := sc.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	if weight <= 0 {
		weight = 1
	}
	if j.Weight != weight {
		j.Weight = weight
		sc.markStaleLocked(id)
		sc.markDirtyLocked(id)
	}
	return nil
}

// SetExternalWeight installs the share weight held by jobs outside this
// controller — the cluster router's Enhanced-AMF weight-sum broadcast
// (core.Instance.ExternalWeight). A change re-floors every job, so it
// forces a re-solve; setting the current value bit-exactly is a no-op.
func (sc *Scheduler) SetExternalWeight(w float64) error {
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("scheduler: invalid external weight %g", w)
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if math.Float64bits(sc.externalWeight) != math.Float64bits(w) {
		sc.externalWeight = w
		sc.needSolve = true
	}
	return nil
}

// validateApproxConfig rejects epsilon/threshold values the solver would
// silently misbehave on: negative, NaN or infinite epsilon, negative
// threshold.
func validateApproxConfig(eps float64, threshold int) error {
	if eps < 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return fmt.Errorf("scheduler: invalid approx epsilon %g", eps)
	}
	if threshold < 0 {
		return fmt.Errorf("scheduler: invalid approx threshold %d", threshold)
	}
	return nil
}

// SetApproxConfig installs the approximate-path knobs at runtime. Epsilon
// is the per-job error budget as a fraction of the instance scale;
// threshold is the component size (jobs+edges) above which the fast path
// engages; both must be positive for it to trigger, and (0, 0) restores
// fully exact solving. A change drops all carried incremental state — a
// component solved under one epsilon must not be spliced under another —
// and forces a re-solve; setting the current values is a no-op.
func (sc *Scheduler) SetApproxConfig(eps float64, threshold int) error {
	if err := validateApproxConfig(eps, threshold); err != nil {
		return err
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.setApproxLocked(eps, threshold)
	return nil
}

func (sc *Scheduler) setApproxLocked(eps float64, threshold int) {
	cur := sc.cfg.Solver
	if math.Float64bits(cur.ApproxEpsilon) == math.Float64bits(eps) && cur.ApproxThreshold == threshold {
		return
	}
	cur.ApproxEpsilon = eps
	cur.ApproxThreshold = threshold
	sc.cfg.ApproxEpsilon = eps
	sc.cfg.ApproxThreshold = threshold
	// Carried component results splice without re-checking the route they
	// were solved on, so a routing-knob change must drop them wholesale.
	sc.resetSolverLocked()
	sc.needSolve = true
}

// ApproxConfig reports the currently installed approximate-path knobs.
func (sc *Scheduler) ApproxConfig() (eps float64, threshold int) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.cfg.Solver.ApproxEpsilon, sc.cfg.Solver.ApproxThreshold
}

// ExternalWeight reports the currently installed external share weight.
func (sc *Scheduler) ExternalWeight() float64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.externalWeight
}

// WeightSum reports the total share weight of the live job set (without
// the external weight) — what the router reconciles across shards.
func (sc *Scheduler) WeightSum() float64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	var sum float64
	for _, j := range sc.jobs {
		sum += j.Weight
	}
	return sum
}

// Shares returns the current per-site share vector of one job, re-solving
// if the job set changed since the last query. The caller owns the
// returned slice.
func (sc *Scheduler) Shares(id string) ([]float64, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if _, ok := sc.jobs[id]; !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	if err := sc.solveLocked(); err != nil {
		return nil, err
	}
	return append([]float64(nil), sc.shares[id]...), nil
}

// Allocation returns all current shares keyed by job ID. The caller owns
// the returned map and slices.
func (sc *Scheduler) Allocation() (map[string][]float64, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if err := sc.solveLocked(); err != nil {
		return nil, err
	}
	out := make(map[string][]float64, len(sc.shares))
	for id, sh := range sc.shares {
		out[id] = append([]float64(nil), sh...)
	}
	return out, nil
}

// Aggregate returns one job's aggregate allocation across sites.
func (sc *Scheduler) Aggregate(id string) (float64, error) {
	sh, err := sc.Shares(id)
	if err != nil {
		return 0, err
	}
	var t float64
	for _, v := range sh {
		t += v
	}
	return t, nil
}

// SetOnSolve installs (or replaces) the post-solve instrumentation hook;
// see Config.OnSolve for the contract. nil uninstalls it.
func (sc *Scheduler) SetOnSolve(fn func(time.Duration)) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.cfg.OnSolve = fn
}

// SetOnStage installs (or replaces) the per-stage solver instrumentation
// hook on the underlying core solver: it receives one core.StageEvent per
// solve stage (validate, partition, solve, merge, plus per-component
// detail events; see core.StageEvent for the contract). The hook fires on
// whichever goroutine triggered the solve and may run with the
// controller's mutex held, so it must be cheap and must not call back into
// the Scheduler. nil uninstalls it.
func (sc *Scheduler) SetOnStage(fn func(core.StageEvent)) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.cfg.Solver.OnStage = fn
}

// Stats returns activity counters.
func (sc *Scheduler) Stats() Stats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	st := sc.stats
	st.Jobs = len(sc.jobs)
	return st
}

// Instance materializes the current job set as a core.Instance (insertion
// order), for inspection or offline analysis. The caller owns the copy.
func (sc *Scheduler) Instance() *core.Instance {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.viewLocked().Clone()
}

// viewLocked returns the current job set as a read-only instance view.
// The shell (slices of rows, names, weights) is cached and immutable once
// returned — the serving engine publishes it — so a mutation never writes
// it: a weight or progress change copies the one slice it touches and
// replaces the job's slot in the copy, an addition appends (past the
// length any earlier shell can see), and a removal drops the cache so the
// shell is rebuilt. The capacity and per-job demand/work rows are shared
// immutable snapshots, replaced — never written in place — when the
// underlying job mutates. With nothing changed the same shell is returned.
func (sc *Scheduler) viewLocked() *core.Instance {
	switch {
	case sc.view == nil:
		sc.view = sc.buildViewLocked()
	case len(sc.stale) > 0 || sc.viewOrder < len(sc.order) || sc.view.ExternalWeight != sc.externalWeight:
		sc.view = sc.patchViewLocked()
	default:
		return sc.view
	}
	sc.viewOrder, sc.stale = len(sc.order), sc.stale[:0]
	return sc.view
}

// patchViewLocked derives the next shell from the cached one: appended
// jobs first (which also gives them their rows), then the stale slots.
func (sc *Scheduler) patchViewLocked() *core.Instance {
	next := *sc.view
	next.ExternalWeight = sc.externalWeight
	// No removal since the shell was built (it would have dropped it), so
	// order[viewOrder:] is exactly the jobs added since, none a tombstone.
	for _, id := range sc.order[sc.viewOrder:] {
		j := sc.jobs[id]
		j.instDemand = append([]float64(nil), j.Demand...)
		j.instWork = append([]float64(nil), j.Remaining...)
		j.row = len(next.JobName)
		next.Demand = append(next.Demand, j.instDemand)
		next.Work = append(next.Work, j.instWork)
		next.Weight = append(next.Weight, j.Weight)
		next.JobName = append(next.JobName, id)
	}
	var ownWeight, ownDemand, ownWork bool
	for _, id := range sc.stale {
		j := sc.jobs[id]
		if next.Weight[j.row] != j.Weight {
			if !ownWeight {
				next.Weight, ownWeight = slices.Clone(next.Weight), true
			}
			next.Weight[j.row] = j.Weight
		}
		if j.instDemand == nil {
			if !ownDemand {
				next.Demand, ownDemand = slices.Clone(next.Demand), true
			}
			j.instDemand = append([]float64(nil), j.Demand...)
			next.Demand[j.row] = j.instDemand
		}
		if j.instWork == nil {
			if !ownWork {
				next.Work, ownWork = slices.Clone(next.Work), true
			}
			j.instWork = append([]float64(nil), j.Remaining...)
			next.Work[j.row] = j.instWork
		}
	}
	return &next
}

// rowLocked is core.Delta.Row: a live job's row in the view viewLocked
// last returned.
func (sc *Scheduler) rowLocked(id string) int {
	if j, ok := sc.jobs[id]; ok {
		return j.row
	}
	return -1
}

// buildViewLocked assembles the shell from scratch in insertion order and
// records every job's row.
func (sc *Scheduler) buildViewLocked() *core.Instance {
	live := len(sc.order) - sc.holes
	in := &core.Instance{
		SiteCapacity:   sc.capRow,
		Demand:         make([][]float64, 0, live),
		Work:           make([][]float64, 0, live),
		Weight:         make([]float64, 0, live),
		JobName:        make([]string, 0, live),
		ExternalWeight: sc.externalWeight,
	}
	for _, id := range sc.order {
		if id == "" {
			continue
		}
		j := sc.jobs[id]
		if j.instDemand == nil {
			j.instDemand = append([]float64(nil), j.Demand...)
		}
		if j.instWork == nil {
			j.instWork = append([]float64(nil), j.Remaining...)
		}
		j.row = len(in.JobName)
		in.Demand = append(in.Demand, j.instDemand)
		in.Work = append(in.Work, j.instWork)
		in.Weight = append(in.Weight, j.Weight)
		in.JobName = append(in.JobName, id)
	}
	return in
}

func (sc *Scheduler) solveLocked() error {
	if !sc.needSolve {
		sc.stats.Skipped++
		return nil
	}
	start := time.Now()
	in := sc.viewLocked()
	if sc.cfg.DisableIncremental {
		sc.resetSolverLocked()
	}
	changed := make([]string, 0, len(sc.dirty))
	for id := range sc.dirty {
		changed = append(changed, id)
	}
	up, err := sc.inc.SolveDelta(in, core.Delta{Changed: changed, Removed: sc.removed, Row: sc.rowLocked})
	if err != nil {
		// Some components' records may have landed before the failure;
		// the carried map never saw them, so the next install is full.
		sc.resetSolverLocked()
		return fmt.Errorf("scheduler: %w", err)
	}
	sc.stats.Solves++
	sc.installDeltaLocked(in, up)
	clear(sc.dirty)
	sc.removed = sc.removed[:0]
	sc.needSolve = false
	d := time.Since(start)
	sc.stats.LastSolve = d
	sc.stats.TotalSolveTime += d
	ist := sc.inc.LastStats()
	sc.stats.LastComponents = ist.Components
	sc.stats.LastLargestComponent = ist.LargestComponent
	sc.stats.LastSpeedup = ist.Speedup
	sc.stats.LastApproxComponents = ist.ApproxComponents
	sc.stats.LastApproxErrorBound = ist.ApproxErrorBound
	sc.stats.LastReused = ist.Reused
	sc.stats.LastResolved = ist.Solved
	sc.stats.GlobalInvalidations = ist.GlobalInvalidations
	if sc.cfg.OnSolve != nil {
		sc.cfg.OnSolve(d)
	}
	return nil
}

// installDeltaLocked installs a solve: the next share map is the previous
// one with the removed jobs dropped and only the rows of the components
// this solve changed overwritten, by reference, from the solver's
// immutable records. The previous map is never written — readers may hold
// it — so the carry is one clone; when the solve changed nothing the same
// map stays installed. The fairness partial comes reduced from the
// solver's per-component records.
func (sc *Scheduler) installDeltaLocked(in *core.Instance, up *core.Update) {
	sc.fair = up.Fairness
	if up.Full {
		// Nothing to carry: take every row from the solver.
		sc.shares = make(map[string][]float64, len(in.JobName))
		for _, id := range in.JobName {
			sc.shares[id] = sc.inc.Row(id)
		}
		return
	}
	if len(up.Results) == 0 && len(up.Zero) == 0 && len(sc.removed) == 0 {
		return
	}
	next := maps.Clone(sc.shares)
	for _, id := range sc.removed {
		delete(next, id)
	}
	for _, r := range up.Results {
		maps.Copy(next, r.Shares)
	}
	for _, id := range up.Zero {
		next[id] = sc.inc.Row(id)
	}
	sc.shares = next
}

// View is one self-consistent read of the controller, taken under a single
// lock acquisition after re-solving if needed: the instance, the shares
// computed against it, and the counters, fairness summary and policy of
// that same instant. Everything in it is a read-only view (see Resolve).
type View struct {
	// Inst is the instance the shares were computed against (job order =
	// Inst.JobName).
	Inst *core.Instance
	// Shares maps every live job to its per-site share row.
	Shares map[string][]float64
	// Stats are the activity counters as of this solve.
	Stats Stats
	// Fairness summarizes the jobs' aggregate allocations, reduced from the
	// solver's per-component partials in component order.
	Fairness fairness.Partial
	// Policy is the active policy's wire name.
	Policy string
}

// ResolveView re-solves if the job set changed and returns the View.
//
// Nothing in it is copied: the share map, the instance shell and every row
// are the controller's own immutable snapshots, shared with other views.
// Callers (the serving engine publishes them as they are) must not mutate
// them; they remain valid after later mutations because mutations replace
// maps, shells and rows instead of writing them in place.
func (sc *Scheduler) ResolveView() (View, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if err := sc.solveLocked(); err != nil {
		return View{}, err
	}
	st := sc.stats
	st.Jobs = len(sc.jobs)
	return View{
		Inst:     sc.viewLocked(),
		Shares:   sc.shares,
		Stats:    st,
		Fairness: sc.fair,
		Policy:   sc.cfg.Policy.Name(),
	}, nil
}

// Resolve is ResolveView for callers that want only the instance and the
// shares; the same read-only contract applies.
func (sc *Scheduler) Resolve() (*core.Instance, map[string][]float64, error) {
	v, err := sc.ResolveView()
	return v.Inst, v.Shares, err
}
