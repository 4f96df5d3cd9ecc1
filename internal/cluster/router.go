package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/serve"
)

// Stable cluster errors. The API layer maps them through api.CodeFor's
// default (invalid_argument → 400) except ErrUnknownJob/ErrDuplicateJob
// pass-throughs, which keep their 404/409 codes.
var (
	// ErrCrossShard rejects a job whose demand sites are already owned by
	// more than one shard: admitting it would couple two shards' max-flow
	// feasibility problems, which the decomposition cannot express.
	ErrCrossShard = errors.New("cluster: job demand spans sites owned by different shards")
	// ErrRestoreUnsupported rejects restore-through-the-router; restore
	// shards individually instead.
	ErrRestoreUnsupported = errors.New("cluster: restore through the router is unsupported; restore shards directly")
	// ErrPolicyMismatch rejects assembling a cluster whose shards disagree
	// with the router (and hence each other) on the fairness policy: a
	// merged allocation under mixed disciplines is meaningless, and the
	// router's weight-broadcast decision is policy-derived.
	ErrPolicyMismatch = errors.New("cluster: shard fairness policy does not match the router")
	// ErrConfigMismatch rejects a merged runtime-config read when the
	// shards disagree on any tuning knob — there is no single document to
	// report. Re-apply the config through the router (ApplyConfig) or fix
	// the divergent shard, then retry.
	ErrConfigMismatch = errors.New("cluster: shards disagree on runtime config")
)

// ErrExplainNeedsJob rejects a full-dump explanation through the router:
// job and site indexes in an Explanation are shard-local, so a merged
// dump would be incoherent. Name the job (?job=) to route the question to
// its owning shard, or read a shard's /v1/explain directly. Served as 400
// invalid_argument via the api.Coder surface.
var ErrExplainNeedsJob error = &codedError{
	msg:  "cluster: explanation through the router requires ?job=<name>; read shards directly for full dumps",
	code: api.CodeInvalidArgument}

// readTimeout bounds the context-less api.Backend read surfaces (Stats,
// Snapshot, ReadyErr) when fanning out to remote shards.
const readTimeout = 5 * time.Second

// RouterStats counts the router's cluster-coordination activity.
type RouterStats struct {
	// Jobs is the number of jobs currently routed.
	Jobs int
	// OwnedSites is the number of sites currently pinned to a shard.
	OwnedSites int
	// WeightSum is the router's global share-weight sum W.
	WeightSum float64
	// BroadcastVersion increments once per weight-sum change that needed
	// reconciling; Broadcasts counts the per-shard SetExternalWeight calls
	// it fanned out, and FastPathSkips the mutations that needed none
	// (single shard, AMF policy, or ΔW = 0).
	BroadcastVersion uint64
	Broadcasts       int64
	FastPathSkips    int64
	// CrossShardRejects counts jobs refused under ErrCrossShard.
	CrossShardRejects int64
}

// Router fans a cluster of shards into one api.Backend: it places each
// job on a shard by hashing its demand component (core.ShardKey), pins
// the job's sites to that shard so later overlapping jobs follow, merges
// reads across every shard, and — under Enhanced-AMF — reconciles the
// global weight sum by broadcasting W − W_shard to each shard's
// ExternalWeight whenever a mutation changes W.
//
// Mutations are serialized through the router's mutex: the router is the
// single sequencer that keeps site ownership and the weight ledger
// consistent with what the shards have durably applied. Reads never take
// that mutex, so a point read does not queue behind another shard's
// commit, fsync or weight broadcast.
type Router struct {
	shards []Shard
	// polName is the cluster's policy, written under mu by ApplyConfig and
	// read lock-free by every allocation, stats and policy read.
	polName  atomic.Pointer[string]
	enhanced bool

	// reg receives the router's own observability families: per-op fan-out
	// latency histograms (cluster.fanout.latency.<op>), per-shard fan-out
	// error counters (cluster.fanout.errors.<i>) and the cluster version
	// spread gauge. nil disables router-side instrumentation. Set before
	// serving (SetMetrics).
	reg *obs.Registry
	// traces is the router's own trace ring: one parent trace per routed
	// mutation (stages: route, shard_commit, weight_broadcast), under
	// which Traces stitches the shards' commit traces. nil disables
	// router-level tracing (parent-ID propagation still happens).
	traces *span.Recorder
	// extraScrapes are additional federation sources beyond the shards —
	// read replicas, registered by the binary (AddScrapeTarget).
	extraScrapes []scrapeTarget

	mu        sync.Mutex
	siteOwner map[int]int // site → shard holding jobs that demand it
	siteRef   map[int]int // site → count of routed jobs demanding it
	jobSites  map[string][]int
	jobWeight map[string]float64 // effective (normalized) weight
	shardWt   []float64          // per-shard live weight sum W_k
	weightSum float64            // global W = Σ W_k
	// stale marks the shards whose last external-weight send failed: their
	// Enhanced-AMF floors lag the ledger until a later reconcile re-sends.
	stale map[int]bool

	// routeMu guards jobShard (job → shard) for the read path. Writers
	// also hold mu and take routeMu only to change the map, so a read
	// waits at most for one map write, never for a shard commit.
	routeMu  sync.RWMutex
	jobShard map[string]int

	broadcastVersion  atomic.Uint64
	broadcasts        atomic.Int64
	fastPathSkips     atomic.Int64
	crossShardRejects atomic.Int64

	// versions caches the vector observed by the most recent merged
	// Allocation — the cluster-wide snapshot version vector.
	versions atomic.Pointer[[]uint64]
}

// NewRouter builds a router over shards running the given fairness
// policy. The policy's capabilities decide whether weight broadcasts are
// needed: only policies declaring GlobalWeightFloors (Enhanced-AMF)
// couple components through the global weight sum. Every shard must run
// this policy — SyncFromShards verifies it and fails with
// ErrPolicyMismatch otherwise.
func NewRouter(shards []Shard, pol policy.Policy) (*Router, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one shard")
	}
	if pol == nil {
		return nil, fmt.Errorf("cluster: router needs a policy")
	}
	r := &Router{
		shards:    shards,
		enhanced:  pol.Capabilities().GlobalWeightFloors,
		siteOwner: map[int]int{},
		siteRef:   map[int]int{},
		jobShard:  map[string]int{},
		jobSites:  map[string][]int{},
		jobWeight: map[string]float64{},
		shardWt:   make([]float64, len(shards)),
		stale:     map[int]bool{},
	}
	name := pol.Name()
	r.polName.Store(&name)
	return r, nil
}

// NumShards reports the cluster size.
func (r *Router) NumShards() int { return len(r.shards) }

// scrapeTarget is one extra metrics-federation source.
type scrapeTarget struct {
	label, value string
	scrape       func(ctx context.Context) ([]byte, error)
}

// SetMetrics attaches the registry receiving the router's fan-out
// telemetry and the cluster.stale_shards gauge. Call before serving;
// returns r for chaining.
func (r *Router) SetMetrics(reg *obs.Registry) *Router {
	r.reg = reg
	if reg != nil {
		reg.Gauge("cluster.stale_shards") // exported at 0 until a send fails
	}
	return r
}

// SetTraces attaches the router's parent-trace ring (see Traces). Call
// before serving; returns r for chaining.
func (r *Router) SetTraces(rec *span.Recorder) *Router {
	r.traces = rec
	return r
}

// AddScrapeTarget registers an extra metrics-federation source — a read
// replica's /metrics, labeled e.g. replica="0". Call before serving.
func (r *Router) AddScrapeTarget(label, value string, scrape func(ctx context.Context) ([]byte, error)) {
	r.extraScrapes = append(r.extraScrapes, scrapeTarget{label: label, value: value, scrape: scrape})
}

// observeFanout feeds one cluster.fanout.latency.<op> histogram.
func (r *Router) observeFanout(op string, start time.Time) {
	if r.reg != nil {
		r.reg.Observe("cluster.fanout.latency."+op, time.Since(start))
	}
}

// countShardError bumps the per-shard fan-out error counter.
func (r *Router) countShardError(shard int) {
	if r.reg != nil {
		r.reg.Counter("cluster.fanout.errors." + strconv.Itoa(shard)).Inc()
	}
}

// beginOp starts one routed mutation's observability context: the
// router-level parent trace ID (the request's trace ID when the API
// middleware minted one, else fresh) is installed in the context both as
// the trace ID — so fan-out legs reuse it and the shard's commit batches
// it under Requests — and as the parent span ID, which the API client
// forwards via the X-AMF-Parent-Span header (in-process shards read it
// straight from the context) so the shard stamps it on the commit trace
// for stitching. The returned builder is nil when router tracing is off;
// mark/finishOp tolerate that.
func (r *Router) beginOp(ctx context.Context) (context.Context, *span.Builder) {
	parent := span.FromContext(ctx)
	if parent == "" {
		parent = span.MintID()
		ctx = span.NewContext(ctx, parent)
	}
	ctx = span.NewParentContext(ctx, parent)
	if r.traces == nil {
		return ctx, nil
	}
	return ctx, span.Begin(parent, time.Now())
}

// mark appends one stage span covering [start, now) to a routed
// mutation's trace.
func mark(tb *span.Builder, name string, start time.Time) {
	if tb != nil {
		tb.Stage(name, time.Since(start))
	}
}

// finishOp records a routed mutation's completed trace.
func (r *Router) finishOp(tb *span.Builder, err error) {
	if tb == nil {
		return
	}
	tb.SetError(err)
	r.traces.Record(tb.Finish())
}

// PolicyName reports the fairness policy the cluster runs — the router's
// configured policy, which SyncFromShards verifies every shard agrees
// with. A cluster-wide switch goes through ApplyConfig, which refuses to
// start from a mixed cluster and rolls the change across every shard.
func (r *Router) PolicyName() string { return *r.polName.Load() }

// checkShardPoliciesLocked verifies every shard runs the router's policy.
func (r *Router) checkShardPoliciesLocked(ctx context.Context) error {
	want := r.PolicyName()
	for i, sh := range r.shards {
		name, err := sh.PolicyName(ctx)
		if err != nil {
			return fmt.Errorf("cluster: policy from shard %d: %w", i, err)
		}
		if name != want {
			return fmt.Errorf("%w: shard %d runs %q, router expects %q",
				ErrPolicyMismatch, i, name, want)
		}
	}
	return nil
}

// effWeight mirrors the scheduler's normalization: weight <= 0 means 1.
func effWeight(w float64) float64 {
	if w <= 0 {
		return 1
	}
	return w
}

// routeLocked picks the shard for a job with the given demand sites:
// the owner of any already-pinned site, else the component hash. extra
// overlays tentative ownership from earlier specs of the same batch.
func (r *Router) routeLocked(sites []int, extra map[int]int) (int, error) {
	owner := -1
	for _, s := range sites {
		o, ok := r.siteOwner[s]
		if !ok {
			if extra != nil {
				o, ok = extra[s]
			}
			if !ok {
				continue
			}
		}
		if owner == -1 {
			owner = o
		} else if o != owner {
			r.crossShardRejects.Add(1)
			return 0, fmt.Errorf("%w (shards %d and %d)", ErrCrossShard, owner, o)
		}
	}
	if owner >= 0 {
		return owner, nil
	}
	key, ok := core.ShardKey(sites)
	if !ok {
		return 0, fmt.Errorf("cluster: job demands no site")
	}
	return core.ShardOf(key, len(r.shards)), nil
}

// recordJobLocked pins a routed job into the ownership maps and the
// weight ledger, returning the weight delta to reconcile.
func (r *Router) recordJobLocked(id string, shard int, sites []int, weight float64) float64 {
	w := effWeight(weight)
	r.routeMu.Lock()
	r.jobShard[id] = shard
	r.routeMu.Unlock()
	r.jobSites[id] = sites
	r.jobWeight[id] = w
	for _, s := range sites {
		r.siteOwner[s] = shard
		r.siteRef[s]++
	}
	r.shardWt[shard] += w
	r.weightSum += w
	return w
}

// forgetJobLocked unpins a removed (or completed) job, returning the
// negative weight delta to reconcile.
func (r *Router) forgetJobLocked(id string) float64 {
	shard := r.jobShard[id]
	w := r.jobWeight[id]
	for _, s := range r.jobSites[id] {
		if r.siteRef[s]--; r.siteRef[s] == 0 {
			delete(r.siteRef, s)
			delete(r.siteOwner, s)
		}
	}
	r.routeMu.Lock()
	delete(r.jobShard, id)
	r.routeMu.Unlock()
	delete(r.jobSites, id)
	delete(r.jobWeight, id)
	r.shardWt[shard] -= w
	r.weightSum -= w
	return -w
}

// reconcileLocked broadcasts the new global weight sum after a mutation
// on shard `dirty` changed W by delta. The dirty shard itself never
// needs the broadcast: its local weight and W moved together, so its
// external weight W − W_dirty is unchanged — only the other shards'
// floors shifted. Fast path: nothing to do for AMF (no weight-sum
// coupling), a single-shard cluster, or ΔW = 0 — except that a shard a
// failed send left stale is re-sent on every reconcile, fast path
// included, until a send succeeds.
func (r *Router) reconcileLocked(ctx context.Context, dirty int, delta float64) error {
	if !r.enhanced || len(r.shards) == 1 {
		r.fastPathSkips.Add(1)
		return nil
	}
	if delta == 0 {
		r.fastPathSkips.Add(1)
		if len(r.stale) == 0 {
			return nil
		}
		return r.broadcastLocked(ctx, func(i int) bool { return r.stale[i] })
	}
	start := time.Now()
	defer func() { r.observeFanout("weight_broadcast", start) }()
	r.broadcastVersion.Add(1)
	return r.broadcastLocked(ctx, func(i int) bool { return i != dirty || r.stale[i] })
}

// broadcastLocked installs W − W_i as the external weight of every shard
// i that send selects and returns the first failure. A failed send marks
// the shard stale and a successful one clears the mark; the mutation
// that triggered the broadcast has already committed either way.
func (r *Router) broadcastLocked(ctx context.Context, send func(i int) bool) error {
	var firstErr error
	staleBefore := len(r.stale)
	for i, sh := range r.shards {
		if !send(i) {
			continue
		}
		ext := r.weightSum - r.shardWt[i]
		if ext < 0 {
			// Float cancellation can leave a tiny negative residue the
			// scheduler would reject.
			ext = 0
		}
		err := sh.SetExternalWeight(ctx, ext)
		r.broadcasts.Add(1)
		if err != nil {
			r.countShardError(i)
			r.stale[i] = true
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: weight broadcast to shard %d: %w", i, err)
			}
		} else {
			delete(r.stale, i)
		}
	}
	if r.reg != nil && len(r.stale) != staleBefore {
		r.reg.Gauge("cluster.stale_shards").Set(float64(len(r.stale)))
	}
	return firstErr
}

// sendAll selects every shard for a full broadcast.
func sendAll(int) bool { return true }

// AddJob routes and registers one job.
func (r *Router) AddJob(ctx context.Context, id string, weight float64, demand, work []float64) (err error) {
	ctx, tb := r.beginOp(ctx)
	defer func() { r.finishOp(tb, err) }()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.jobShard[id]; ok {
		return fmt.Errorf("%w: %q", scheduler.ErrDuplicateJob, id)
	}
	sites := core.DemandSites(demand)
	t0 := time.Now()
	shard, err := r.routeLocked(sites, nil)
	mark(tb, "route", t0)
	if err != nil {
		return err
	}
	t0 = time.Now()
	err = r.shards[shard].AddJob(ctx, id, weight, demand, work)
	mark(tb, "shard_commit", t0)
	if err != nil {
		r.countShardError(shard)
		return err
	}
	delta := r.recordJobLocked(id, shard, sites, weight)
	t0 = time.Now()
	err = r.reconcileLocked(ctx, shard, delta)
	mark(tb, "weight_broadcast", t0)
	return err
}

// AddJobs routes a batch. Specs are grouped by target shard and each
// group is registered atomically on its shard; when the batch spans
// shards and a later group fails, already-registered groups are rolled
// back best-effort, so the batch is all-or-nothing as long as the
// compensating removals succeed.
func (r *Router) AddJobs(ctx context.Context, specs []scheduler.JobSpec) (err error) {
	ctx, tb := r.beginOp(ctx)
	defer func() { r.finishOp(tb, err) }()
	r.mu.Lock()
	defer r.mu.Unlock()
	if tb != nil {
		tb.SetBatch(len(specs), nil)
	}
	seen := map[string]bool{}
	tentative := map[int]int{}
	groups := map[int][]scheduler.JobSpec{}
	siteSets := map[string][]int{}
	t0 := time.Now()
	for _, sp := range specs {
		if _, ok := r.jobShard[sp.ID]; ok || seen[sp.ID] {
			mark(tb, "route", t0)
			return fmt.Errorf("%w: %q", scheduler.ErrDuplicateJob, sp.ID)
		}
		seen[sp.ID] = true
		sites := core.DemandSites(sp.Demand)
		shard, rerr := r.routeLocked(sites, tentative)
		if rerr != nil {
			mark(tb, "route", t0)
			return rerr
		}
		for _, s := range sites {
			tentative[s] = shard
		}
		siteSets[sp.ID] = sites
		groups[shard] = append(groups[shard], sp)
	}
	mark(tb, "route", t0)
	order := make([]int, 0, len(groups))
	for shard := range groups {
		order = append(order, shard)
	}
	sort.Ints(order)
	t0 = time.Now()
	applied := make([]int, 0, len(order))
	for _, shard := range order {
		if err := r.shards[shard].AddJobs(ctx, groups[shard]); err != nil {
			r.countShardError(shard)
			for _, k := range applied {
				for _, sp := range groups[k] {
					_ = r.shards[k].RemoveJob(ctx, sp.ID)
				}
			}
			mark(tb, "shard_commit", t0)
			return err
		}
		applied = append(applied, shard)
	}
	mark(tb, "shard_commit", t0)
	var total float64
	last := 0
	for _, shard := range order {
		for _, sp := range groups[shard] {
			total += r.recordJobLocked(sp.ID, shard, siteSets[sp.ID], sp.Weight)
		}
		last = shard
	}
	if len(order) > 1 {
		// More than one shard got new weight: no single dirty shard, so
		// reconcile against a sentinel that broadcasts to everyone.
		last = -1
	}
	t0 = time.Now()
	err = r.reconcileLocked(ctx, last, total)
	mark(tb, "weight_broadcast", t0)
	return err
}

// RemoveJob routes a removal.
func (r *Router) RemoveJob(ctx context.Context, id string) (err error) {
	ctx, tb := r.beginOp(ctx)
	defer func() { r.finishOp(tb, err) }()
	r.mu.Lock()
	defer r.mu.Unlock()
	shard, ok := r.jobShard[id]
	if !ok {
		return fmt.Errorf("%w: %q", scheduler.ErrUnknownJob, id)
	}
	t0 := time.Now()
	err = r.shards[shard].RemoveJob(ctx, id)
	mark(tb, "shard_commit", t0)
	if err != nil {
		r.countShardError(shard)
		return err
	}
	delta := r.forgetJobLocked(id)
	t0 = time.Now()
	err = r.reconcileLocked(ctx, shard, delta)
	mark(tb, "weight_broadcast", t0)
	return err
}

// ReportProgress routes a progress report; a completed job leaves the
// ledger exactly like a removal.
func (r *Router) ReportProgress(ctx context.Context, id string, done []float64) (completed bool, err error) {
	ctx, tb := r.beginOp(ctx)
	defer func() { r.finishOp(tb, err) }()
	r.mu.Lock()
	defer r.mu.Unlock()
	shard, ok := r.jobShard[id]
	if !ok {
		return false, fmt.Errorf("%w: %q", scheduler.ErrUnknownJob, id)
	}
	t0 := time.Now()
	completed, err = r.shards[shard].ReportProgress(ctx, id, done)
	mark(tb, "shard_commit", t0)
	if err != nil {
		r.countShardError(shard)
		return false, err
	}
	delta := 0.0
	if completed {
		delta = r.forgetJobLocked(id)
	}
	t0 = time.Now()
	err = r.reconcileLocked(ctx, shard, delta)
	mark(tb, "weight_broadcast", t0)
	return completed, err
}

// UpdateWeight routes a weight change.
func (r *Router) UpdateWeight(ctx context.Context, id string, weight float64) (err error) {
	ctx, tb := r.beginOp(ctx)
	defer func() { r.finishOp(tb, err) }()
	r.mu.Lock()
	defer r.mu.Unlock()
	shard, ok := r.jobShard[id]
	if !ok {
		return fmt.Errorf("%w: %q", scheduler.ErrUnknownJob, id)
	}
	t0 := time.Now()
	err = r.shards[shard].UpdateWeight(ctx, id, weight)
	mark(tb, "shard_commit", t0)
	if err != nil {
		r.countShardError(shard)
		return err
	}
	old := r.jobWeight[id]
	w := effWeight(weight)
	r.jobWeight[id] = w
	r.shardWt[shard] += w - old
	r.weightSum += w - old
	t0 = time.Now()
	err = r.reconcileLocked(ctx, shard, w-old)
	mark(tb, "weight_broadcast", t0)
	return err
}

// shardOf looks a job's shard up for the read path, without the
// mutation lock.
func (r *Router) shardOf(id string) (int, bool) {
	r.routeMu.RLock()
	defer r.routeMu.RUnlock()
	shard, ok := r.jobShard[id]
	return shard, ok
}

// Shares routes a single-job read to its shard.
func (r *Router) Shares(ctx context.Context, id string) ([]float64, error) {
	shard, ok := r.shardOf(id)
	if !ok {
		return nil, fmt.Errorf("%w: %q", scheduler.ErrUnknownJob, id)
	}
	return r.shards[shard].Shares(ctx, id)
}

// Allocation fans the read out to every shard in parallel and merges the
// maps into one response, caching the per-shard snapshot versions as the
// cluster's version vector (VersionVector, SnapshotVersion).
func (r *Router) Allocation(ctx context.Context) (map[string][]float64, error) {
	start := time.Now()
	defer func() { r.observeFanout("allocation", start) }()
	type result struct {
		alloc   map[string][]float64
		version uint64
		err     error
	}
	results := make([]result, len(r.shards))
	var wg sync.WaitGroup
	for i, sh := range r.shards {
		wg.Add(1)
		go func(i int, sh Shard) {
			defer wg.Done()
			results[i].alloc, results[i].version, results[i].err = sh.Allocation(ctx)
		}(i, sh)
	}
	wg.Wait()
	merged := map[string][]float64{}
	versions := make([]uint64, len(r.shards))
	for i, res := range results {
		if res.err != nil {
			r.countShardError(i)
			return nil, fmt.Errorf("cluster: allocation from shard %d: %w", i, res.err)
		}
		versions[i] = res.version
		for id, shares := range res.alloc {
			merged[id] = shares
		}
	}
	r.versions.Store(&versions)
	return merged, nil
}

// Explain routes the explainability question to the job's owning shard
// and labels the answer with that shard's index. Full dumps (job "") are
// refused: an Explanation's job and site indexes are shard-local, so a
// merged dump would be incoherent.
func (r *Router) Explain(ctx context.Context, job string) (*serve.ExplainResult, error) {
	if job == "" {
		return nil, ErrExplainNeedsJob
	}
	shard, ok := r.shardOf(job)
	if !ok {
		return nil, fmt.Errorf("%w: %q", scheduler.ErrUnknownJob, job)
	}
	start := time.Now()
	defer func() { r.observeFanout("explain", start) }()
	res, err := r.shards[shard].Explain(ctx, job)
	if err != nil {
		r.countShardError(shard)
		return nil, fmt.Errorf("cluster: explain from shard %d: %w", shard, err)
	}
	res.Shard = strconv.Itoa(shard)
	return res, nil
}

// VersionVector returns the per-shard snapshot versions observed by the
// most recent merged Allocation (nil before the first).
func (r *Router) VersionVector() []uint64 {
	p := r.versions.Load()
	if p == nil {
		return nil
	}
	return append([]uint64(nil), (*p)...)
}

// SnapshotVersion flattens the version vector into one scalar (the sum):
// each component is non-decreasing, so the sum is a monotonic cluster
// version.
func (r *Router) SnapshotVersion() uint64 {
	var sum uint64
	for _, v := range r.VersionVector() {
		sum += v
	}
	return sum
}

// Stats merges controller counters across shards: totals are summed,
// last-solve telemetry takes the slowest/largest shard.
func (r *Router) Stats() scheduler.Stats {
	ctx, cancel := context.WithTimeout(context.Background(), readTimeout)
	defer cancel()
	var out scheduler.Stats
	for _, sh := range r.shards {
		st, err := sh.Stats(ctx)
		if err != nil {
			continue // best effort: a dead shard drops out of the merge
		}
		out.Solves += st.Solves
		out.Skipped += st.Skipped
		out.Jobs += st.Jobs
		out.Completed += st.Completed
		if st.LastSolve > out.LastSolve {
			out.LastSolve = st.LastSolve
		}
		out.TotalSolveTime += st.TotalSolveTime
		out.LastComponents += st.LastComponents
		if st.LastLargestComponent > out.LastLargestComponent {
			out.LastLargestComponent = st.LastLargestComponent
		}
		if st.LastSpeedup > out.LastSpeedup {
			out.LastSpeedup = st.LastSpeedup
		}
		out.LastReused += st.LastReused
		out.LastResolved += st.LastResolved
		out.GlobalInvalidations += st.GlobalInvalidations
	}
	return out
}

// Snapshot merges the shards' job sets into one diagnostic snapshot.
// It cannot be restored through the router (see Restore); external
// weights are shard-local and omitted.
func (r *Router) Snapshot() scheduler.Snapshot {
	ctx, cancel := context.WithTimeout(context.Background(), readTimeout)
	defer cancel()
	var out scheduler.Snapshot
	for _, sh := range r.shards {
		snap, err := sh.Snapshot(ctx)
		if err != nil {
			continue
		}
		out.Jobs = append(out.Jobs, snap.Jobs...)
	}
	return out
}

// Restore is unsupported through the router.
func (r *Router) Restore(ctx context.Context, snap scheduler.Snapshot) error {
	return ErrRestoreUnsupported
}

// Traces returns the cluster's stitched trace forest, newest first,
// capped at limit top-level trees (0 = everything).
//
// Every shard's whole ring is fetched in parallel and each shard-local
// commit trace is tagged with its shard index. Traces carrying a parent
// ID that matches a router-level trace (recorded per routed mutation —
// see beginOp) hang under that parent as Children; traces whose parent
// has already churned out of the router's ring, and standalone traces
// (no parent), stay visible as flat top-level entries.
func (r *Router) Traces(ctx context.Context, limit int) ([]*span.Trace, error) {
	start := time.Now()
	defer func() { r.observeFanout("traces", start) }()
	type result struct {
		traces []*span.Trace
		err    error
	}
	results := make([]result, len(r.shards))
	var wg sync.WaitGroup
	for i, sh := range r.shards {
		wg.Add(1)
		go func(i int, sh Shard) {
			defer wg.Done()
			// Fetch the whole ring: a child relevant to a recent parent may
			// sit deeper than `limit` in a busy shard's ring.
			results[i].traces, results[i].err = sh.Traces(ctx, 0)
		}(i, sh)
	}
	wg.Wait()
	children := map[span.ID][]*span.Trace{}
	var flat []*span.Trace
	for i, res := range results {
		if res.err != nil {
			r.countShardError(i)
			return nil, fmt.Errorf("cluster: traces from shard %d: %w", i, res.err)
		}
		label := strconv.Itoa(i)
		for _, t := range res.traces {
			c := t.StitchChild(t.Parent, label)
			if c.Parent != "" {
				children[c.Parent] = append(children[c.Parent], c)
			} else {
				flat = append(flat, c)
			}
		}
	}
	var merged []*span.Trace
	if r.traces != nil {
		for _, p := range r.traces.Recent(0) {
			// Shallow copy: the recorded parent is immutable and shared with
			// concurrent readers; only the copy grows Children.
			cp := *p
			cp.Children = children[cp.ID]
			sort.SliceStable(cp.Children, func(a, b int) bool {
				return cp.Children[a].Shard < cp.Children[b].Shard
			})
			delete(children, cp.ID)
			merged = append(merged, &cp)
		}
	}
	// Children whose parent churned out of the router ring stay visible.
	for _, orphans := range children {
		flat = append(flat, orphans...)
	}
	merged = append(merged, flat...)
	sort.SliceStable(merged, func(a, b int) bool {
		return merged[a].Start.After(merged[b].Start)
	})
	if limit > 0 && len(merged) > limit {
		merged = merged[:limit]
	}
	return merged, nil
}

// SlowTraces merges the shards' slow-trace retention rings, slowest
// first, capped at limit (0 = everything retained), each trace tagged
// with its shard index.
func (r *Router) SlowTraces(ctx context.Context, limit int) ([]*span.Trace, error) {
	type result struct {
		traces []*span.Trace
		err    error
	}
	results := make([]result, len(r.shards))
	var wg sync.WaitGroup
	for i, sh := range r.shards {
		wg.Add(1)
		go func(i int, sh Shard) {
			defer wg.Done()
			results[i].traces, results[i].err = sh.SlowTraces(ctx, limit)
		}(i, sh)
	}
	wg.Wait()
	var merged []*span.Trace
	for i, res := range results {
		if res.err != nil {
			r.countShardError(i)
			return nil, fmt.Errorf("cluster: slow traces from shard %d: %w", i, res.err)
		}
		label := strconv.Itoa(i)
		for _, t := range res.traces {
			merged = append(merged, t.StitchChild(t.Parent, label))
		}
	}
	sort.SliceStable(merged, func(a, b int) bool {
		return merged[a].Total > merged[b].Total
	})
	if limit > 0 && len(merged) > limit {
		merged = merged[:limit]
	}
	return merged, nil
}

// WriteFederatedMetrics scrapes every shard's (and registered replica's)
// Prometheus page concurrently and re-exports them as ONE exposition:
// shard pages gain a shard="<i>" label, extra targets their registered
// label pair, and the router's own registry (fan-out latencies, per-shard
// error counters, version spread) rides along unlabeled. A target that
// fails to scrape drops out of the page (best effort, counted in
// cluster.fanout.errors.<i> for shards) rather than failing the scrape.
func (r *Router) WriteFederatedMetrics(ctx context.Context, w io.Writer) error {
	start := time.Now()
	defer func() { r.observeFanout("metrics", start) }()
	n := len(r.shards) + len(r.extraScrapes)
	pages := make([]obs.ScrapedPage, 0, n+1)
	bodies := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, sh := range r.shards {
		wg.Add(1)
		go func(i int, sh Shard) {
			defer wg.Done()
			bodies[i], errs[i] = sh.ScrapeMetrics(ctx)
		}(i, sh)
	}
	for i, t := range r.extraScrapes {
		wg.Add(1)
		go func(i int, t scrapeTarget) {
			defer wg.Done()
			bodies[i], errs[i] = t.scrape(ctx)
		}(len(r.shards)+i, t)
	}
	wg.Wait()
	for i := range r.shards {
		if errs[i] != nil {
			r.countShardError(i)
			continue
		}
		pages = append(pages, obs.ScrapedPage{Label: "shard", Value: strconv.Itoa(i), Body: bodies[i]})
	}
	for i, t := range r.extraScrapes {
		if errs[len(r.shards)+i] != nil {
			continue
		}
		pages = append(pages, obs.ScrapedPage{Label: t.label, Value: t.value, Body: bodies[len(r.shards)+i]})
	}
	if r.reg != nil {
		// Refresh the version-spread gauge from the latest merged read
		// before self-scraping: how far apart the shards' snapshot
		// versions sit, 0 for a lock-step (or single-shard) cluster.
		if vec := r.VersionVector(); len(vec) > 0 {
			lo, hi := vec[0], vec[0]
			for _, v := range vec[1:] {
				lo, hi = min(lo, v), max(hi, v)
			}
			r.reg.Gauge("cluster.version_spread").Set(float64(hi - lo))
		}
		var sb strings.Builder
		if err := r.reg.WritePrometheus(&sb); err == nil {
			pages = append(pages, obs.ScrapedPage{Body: []byte(sb.String())})
		}
	}
	return obs.WriteFederated(w, pages)
}

// ReadyErr reports the first unready shard: the cluster can take
// mutations only when every shard can.
func (r *Router) ReadyErr() error {
	ctx, cancel := context.WithTimeout(context.Background(), readTimeout)
	defer cancel()
	for i, sh := range r.shards {
		if err := sh.ReadyErr(ctx); err != nil {
			return fmt.Errorf("cluster: shard %d unready: %w", i, err)
		}
	}
	return nil
}

// RouterStats reports the router's coordination counters.
func (r *Router) RouterStats() RouterStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RouterStats{
		Jobs:              len(r.jobShard),
		OwnedSites:        len(r.siteOwner),
		WeightSum:         r.weightSum,
		BroadcastVersion:  r.broadcastVersion.Load(),
		Broadcasts:        r.broadcasts.Load(),
		FastPathSkips:     r.fastPathSkips.Load(),
		CrossShardRejects: r.crossShardRejects.Load(),
	}
}

// SyncFromShards rebuilds the routing tables from the shards' live job
// sets — router restart against a running cluster. It fails if any shard
// runs a different fairness policy (ErrPolicyMismatch) or if two
// shards claim the same site (an operator mis-assembly the router must
// not paper over) and finishes by reconciling every shard's external
// weight against the rebuilt ledger.
func (r *Router) SyncFromShards(ctx context.Context) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.checkShardPoliciesLocked(ctx); err != nil {
		return err
	}
	siteOwner := map[int]int{}
	siteRef := map[int]int{}
	jobShard := map[string]int{}
	jobSites := map[string][]int{}
	jobWeight := map[string]float64{}
	shardWt := make([]float64, len(r.shards))
	var weightSum float64
	for i, sh := range r.shards {
		snap, err := sh.Snapshot(ctx)
		if err != nil {
			return fmt.Errorf("cluster: sync from shard %d: %w", i, err)
		}
		for _, j := range snap.Jobs {
			if prev, ok := jobShard[j.ID]; ok {
				return fmt.Errorf("cluster: job %q on shards %d and %d", j.ID, prev, i)
			}
			sites := core.DemandSites(j.Demand)
			for _, s := range sites {
				if o, ok := siteOwner[s]; ok && o != i {
					return fmt.Errorf("cluster: site %d owned by shards %d and %d", s, o, i)
				}
				siteOwner[s] = i
				siteRef[s]++
			}
			w := effWeight(j.Weight)
			jobShard[j.ID] = i
			jobSites[j.ID] = sites
			jobWeight[j.ID] = w
			shardWt[i] += w
			weightSum += w
		}
	}
	r.siteOwner, r.siteRef = siteOwner, siteRef
	r.routeMu.Lock()
	r.jobShard = jobShard
	r.routeMu.Unlock()
	r.jobSites, r.jobWeight = jobSites, jobWeight
	r.shardWt, r.weightSum = shardWt, weightSum
	if !r.enhanced {
		return nil
	}
	// Force a full broadcast even when W is unchanged (or zero): a
	// restarted shard may hold a stale external weight the ΔW fast path
	// would never repair.
	r.broadcastVersion.Add(1)
	return r.broadcastLocked(ctx, sendAll)
}

// RuntimeConfig merges the shards' runtime-tuning documents into the
// cluster's (GET /v1/config). Every shard must report the
// identical document — a divergent shard fails the read with
// ErrConfigMismatch rather than silently picking a winner, mirroring the
// mixed-policy refusal.
func (r *Router) RuntimeConfig(ctx context.Context) (scheduler.RuntimeConfig, error) {
	var first scheduler.RuntimeConfig
	for i, sh := range r.shards {
		rc, err := sh.RuntimeConfig(ctx)
		if err != nil {
			return scheduler.RuntimeConfig{}, fmt.Errorf("cluster: config from shard %d: %w", i, err)
		}
		if i == 0 {
			first = rc
			continue
		}
		if rc != first {
			return scheduler.RuntimeConfig{}, fmt.Errorf(
				"%w: shard 0 reports %+v, shard %d reports %+v", ErrConfigMismatch, first, i, rc)
		}
	}
	return first, nil
}

// ApplyConfig rolls one runtime-tuning patch across every shard
// (PATCH /v1/config). It refuses to start from a mixed
// cluster — the shards must already agree on the fairness policy
// (ErrPolicyMismatch), same as assembly — and then applies the patch
// shard by shard under the router's mutation lock; the first failure
// aborts the roll-out, leaving earlier shards on the new config (re-run
// the patch, or read RuntimeConfig to see the divergence, exactly like a
// failed weight broadcast). A successful policy patch updates the
// router's own policy and rebroadcasts external weights when the new
// policy's floor coupling demands it.
func (r *Router) ApplyConfig(ctx context.Context, p scheduler.ConfigPatch) error {
	if p.Empty() {
		return nil
	}
	var newPol policy.Policy
	if p.Policy != nil {
		pol, err := policy.ForName(*p.Policy)
		if err != nil {
			return err
		}
		newPol = pol
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.checkShardPoliciesLocked(ctx); err != nil {
		return err
	}
	for i, sh := range r.shards {
		if err := sh.ApplyConfig(ctx, p); err != nil {
			return fmt.Errorf("cluster: applying config on shard %d: %w", i, err)
		}
	}
	if newPol == nil {
		return nil
	}
	wasEnhanced := r.enhanced
	name := newPol.Name()
	r.polName.Store(&name)
	r.enhanced = newPol.Capabilities().GlobalWeightFloors
	if !r.enhanced || wasEnhanced {
		// Shards joining (or staying on) a floor-free policy ignore their
		// external weight, and an enhanced→enhanced switch keeps the floors
		// the ledger already broadcast.
		return nil
	}
	// Floor coupling just switched on: every shard needs its external
	// weight installed before the floors mean anything.
	r.broadcastVersion.Add(1)
	return r.broadcastLocked(ctx, sendAll)
}
