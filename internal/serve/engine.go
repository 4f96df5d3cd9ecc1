// Package serve is the concurrent serving engine around the scheduler
// controller: the subsystem that lets one allocator instance absorb heavy
// mutation and read traffic without the solver sitting on every request's
// critical path.
//
// Three mechanisms do the work:
//
//   - Group-committed mutations. Mutations (add/remove/progress/weight,
//     bulk registrations, config patches, snapshot restores) are
//     enqueued to a single committer goroutine, which drains whatever is
//     pending — bounded by MaxBatch and optionally stretched by
//     BatchWindow — applies the whole batch to the scheduler, and
//     re-solves ONCE for the batch instead of once per mutation. Callers
//     block until their batch commits, so a mutation's success/error is
//     returned synchronously and a subsequent read observes the write
//     (read-your-writes). Submission is context-aware: a caller whose
//     context is cancelled while its mutation is still queued abandons
//     the commit — the committer skips the op instead of applying it.
//
//   - RCU-style allocation snapshots. Every commit publishes an immutable,
//     version-numbered AllocSnapshot through an atomic.Pointer. Reads
//     (Current, Allocation, Shares) load the pointer and walk the frozen
//     data — no lock, no contention with writers, never blocked behind a
//     solve.
//
//   - Write-ahead durability (optional, Config.Log). After a batch is
//     applied, its successful mutations are appended to the WAL as ONE
//     record and fsynced ONCE — the batch window that amortizes the solve
//     amortizes the fsync too — before the snapshot is published and the
//     callers are released. The committer folds the log into a state
//     snapshot (wal.Log.Compact) when it grows past CompactBytes or every
//     CompactInterval, whichever comes first. A WAL write or fsync
//     failure is fail-stop for mutations: acknowledged state and durable
//     state would otherwise diverge, so the engine rejects further
//     mutations with ErrWALFailed while reads keep serving the last
//     published snapshot.
//
// Snapshot restores (Restore) are exclusive: the committer quiesces the
// batch pipeline and commits a restore as a batch of one, so a state swap
// never interleaves with other mutations inside a commit.
//
// The engine optionally instruments itself into an obs.Registry: solver
// latency, commit latency, batch sizes, mutation/read counters, the
// published snapshot version, the solver's decomposition telemetry, and —
// with a WAL attached — append/fsync latency histograms, log depth
// gauges and compaction counters.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fairness"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/scheduler"
	"repro/internal/wal"
)

// ErrClosed is returned for mutations submitted after Close.
var ErrClosed = errors.New("serve: engine closed")

// ErrWALFailed is returned for mutations after a write-ahead-log append,
// fsync or compaction failure. The engine fail-stops mutations at that
// point: anything acknowledged afterwards could not be recovered, so
// nothing further is acknowledged. Reads keep serving the last published
// snapshot, which matches the durable state.
var ErrWALFailed = errors.New("serve: write-ahead log failed, engine is read-only")

// Config parameterizes an Engine.
type Config struct {
	// MaxBatch caps the number of mutations committed per solve.
	// Values <= 1 disable batching: every mutation solves individually
	// (the "unbatched" baseline). Default 256.
	MaxBatch int
	// BatchWindow stretches batch collection: after the first mutation of
	// a batch arrives, the committer waits up to this long for more before
	// solving. Zero (the default) is opportunistic batching — the
	// committer drains only what is already queued, adding no latency.
	BatchWindow time.Duration
	// QueueDepth is the mutation queue's buffer (default 256).
	QueueDepth int
	// Metrics, when set, receives engine instrumentation (see package
	// comment). Nil disables it.
	Metrics *obs.Registry
	// Log, when set, makes every commit durable: the batch's successful
	// mutations are appended and fsynced as one record before callers are
	// released. The engine assumes ownership: Close seals the log after a
	// final compaction.
	Log *wal.Log
	// CompactBytes triggers a log compaction once the record tail grows
	// past this many bytes (default 4 MiB). Only meaningful with Log.
	CompactBytes int64
	// CompactInterval additionally triggers periodic compaction (zero
	// disables the timer; size-based compaction still runs).
	CompactInterval time.Duration
	// Traces, when set, enables commit tracing: every commit builds a
	// span.Trace (queue wait, apply, WAL encode/append/fsync, solver
	// stages, publish) and records it into this ring. Nil disables tracing;
	// the per-stage histograms in Metrics are fed either way.
	Traces *span.Recorder
	// SlowTraces, when set alongside Traces, additionally retains the N
	// slowest commits of the recorder's window (GET /v1/traces?slow=1), so
	// slow-commit evidence survives main-ring churn. Nil disables it.
	SlowTraces *span.SlowRecorder
	// Logger, when set, receives structured engine logs (currently slow
	// commits; see SlowCommit). Nil disables logging.
	Logger *slog.Logger
	// SlowCommit is the whole-commit latency threshold above which the
	// engine logs a warning with the commit's trace ID, sequence number and
	// per-stage timings. Zero disables slow-commit logging.
	SlowCommit time.Duration
}

// AllocSnapshot is one immutable published allocation: everything a read
// needs, frozen at commit time. Fields must not be mutated by readers.
type AllocSnapshot struct {
	// Version increases by one per commit; readers can use it to detect
	// staleness or order observations.
	Version uint64
	// Policy is the wire name of the fairness policy the snapshot was
	// solved under.
	Policy string
	// Taken is the commit wall-clock time.
	Taken time.Time
	// Shares maps job ID to its per-site share vector.
	Shares map[string][]float64
	// Inst is the instance the shares were solved against (job order =
	// Inst.JobName).
	Inst *core.Instance
	// BatchSize is the number of mutations in the commit that produced
	// this snapshot (0 for the initial snapshot).
	BatchSize int
	// SolveDuration is how long the commit's re-solve took.
	SolveDuration time.Duration
	// ComponentsReused and ComponentsResolved record how incrementally the
	// commit's solve ran: reused components kept their carried results,
	// resolved ones were actually re-solved.
	// Both are zero when the solve was skipped (nothing dirty) and
	// Reused is zero on from-scratch paths.
	ComponentsReused   int
	ComponentsResolved int
	// Fairness summarizes the jobs' aggregate allocations (the source of
	// the fairness.* gauges), read from the controller together with the
	// shares: reduced from the solver's per-component partials, exact up to
	// summation order.
	Fairness fairness.Partial
}

// Allocation materializes the snapshot as a core.Allocation (rows in
// Inst.JobName order), for the fairness/feasibility verifiers.
func (s *AllocSnapshot) Allocation() *core.Allocation {
	a := &core.Allocation{
		Inst:  s.Inst,
		Share: make([][]float64, len(s.Inst.JobName)),
	}
	for i, id := range s.Inst.JobName {
		a.Share[i] = s.Shares[id]
	}
	return a
}

// Engine-side stage names (the solver's live in core: validate,
// partition, solve, merge, solve.component). Together they name the
// commit's sequential span timeline and the engine.stage.<name> latency
// histograms.
const (
	stageQueueWait = "queue_wait"
	stageApply     = "apply"
	stageWALEncode = "wal_encode"
	stageWALAppend = "wal_append"
	stageWALFsync  = "wal_fsync"
	stagePublish   = "publish"
)

// op submission states: the CAS between the committer (taking the op to
// apply it) and a cancelling submitter (abandoning it while queued) that
// makes context cancellation race-free.
const (
	opQueued int32 = iota
	opTaken
	opCancelled
)

// op is one queued mutation. apply runs under the committer; done is
// closed after the batch containing the op has committed and its snapshot
// is published.
type op struct {
	apply func(*scheduler.Scheduler) error
	// rec is the mutation's WAL form, logged iff apply succeeds. Nil means
	// the op is not logged.
	rec *wal.Mutation
	// exclusive ops (snapshot restores) never share a batch: the committer
	// finishes the in-progress batch, commits the exclusive op alone, then
	// resumes batching.
	exclusive bool
	// traceID is the submitting request's trace ID ("" when the context
	// carried none); parentID is the cluster-level parent trace ID riding
	// the request (X-AMF-Parent-Span, "" standalone); enqueuedAt anchors
	// the commit's queue-wait span.
	traceID    span.ID
	parentID   span.ID
	enqueuedAt time.Time
	state      atomic.Int32
	err        error
	done       chan struct{}
}

// Engine is the concurrent serving engine. Create with New, stop with
// Close. All methods are safe for concurrent use.
type Engine struct {
	sc  *scheduler.Scheduler
	cfg Config

	mu     sync.RWMutex // guards closed + sends on ops vs. Close
	closed bool
	ops    chan *op
	done   chan struct{} // closed when the committer exits

	// pending holds an exclusive op the gatherer pulled mid-batch; the
	// committer commits it alone on its next iteration. Committer-only.
	pending *op

	compactCh chan struct{} // periodic compaction ticks
	crash     chan struct{} // test support: simulated process death
	crashOnce sync.Once

	walFailed atomic.Bool

	snap atomic.Pointer[AllocSnapshot]

	// explain caches the lazily-derived allocation explanation for the
	// published snapshot, keyed by its version. Deriving is read-side work
	// (Explain), never commit-side, so explanation capture adds zero cost
	// to the commit path; the mutex only serializes concurrent first
	// readers of the same version.
	explainMu    sync.Mutex
	explainCache atomic.Pointer[explainEntry]

	// Commit-trace state, owned by the committer goroutine. tb is the
	// in-flight commit's trace builder (nil outside a traced commit); the
	// solver stage hook and WAL observer append into it from the
	// committer's own call stack. solveSpanSum accumulates the non-detail
	// solver stage durations of the current publish, so the "publish" span
	// can report only the snapshot-building overhead beyond them.
	commitSeq    uint64
	tb           *span.Builder
	solveSpanSum time.Duration

	// Cached metric handles; when Config.Metrics is unset they point into
	// a private throwaway registry so the hot path stays branch-free.
	reg         *obs.Registry
	mMutations  *obs.Counter
	mCommits    *obs.Counter
	mExclusive  *obs.Counter
	mCancels    *obs.Counter
	mSolveErrs  *obs.Counter
	mReads      *obs.Counter
	mWALErrs    *obs.Counter
	mCompacts   *obs.Counter
	hSolve      *obs.Histogram
	hCommit     *obs.Histogram
	hWALAppend  *obs.Histogram
	hWALFsync   *obs.Histogram
	hWALCompact *obs.Histogram
	gBatch      *obs.Gauge
	gVersion    *obs.Gauge
	gJobs       *obs.Gauge
	gComps      *obs.Gauge
	gLargest    *obs.Gauge
	gSpeedup    *obs.Gauge
	gReused     *obs.Gauge
	gResolved   *obs.Gauge
	gWALRecords *obs.Gauge
	gWALBytes   *obs.Gauge
	gWALSegs    *obs.Gauge
	gJain       *obs.Gauge
	gMinShare   *obs.Gauge
	gMaxShare   *obs.Gauge
	gApproxComp *obs.Gauge
	gApproxErr  *obs.Gauge
	gWALFailed  *obs.Gauge
	// stageHists caches the engine.stage.<name> histograms for the known
	// stage names; unknown names fall back to a (thread-safe) registry
	// lookup.
	stageHists map[string]*obs.Histogram
}

// New wraps a scheduler in a serving engine, publishes the initial
// snapshot (solving the scheduler's current state), and starts the
// committer. The engine assumes ownership of mutations: apply writes only
// through it, or snapshots (and the WAL, if attached) will lag the
// controller. With Config.Log, the scheduler must already hold the
// recovered state (wal.Recovery.Replay) — the engine logs only what it
// commits.
func New(sc *scheduler.Scheduler, cfg Config) (*Engine, error) {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 256
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.CompactBytes <= 0 {
		cfg.CompactBytes = 4 << 20
	}
	e := &Engine{
		sc:        sc,
		cfg:       cfg,
		ops:       make(chan *op, cfg.QueueDepth),
		done:      make(chan struct{}),
		compactCh: make(chan struct{}, 1),
		crash:     make(chan struct{}),
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e.reg = reg
	e.mMutations = reg.Counter("engine.mutations_total")
	e.mCommits = reg.Counter("engine.commits_total")
	e.mExclusive = reg.Counter("engine.exclusive_commits_total")
	e.mCancels = reg.Counter("engine.cancelled_mutations_total")
	e.mSolveErrs = reg.Counter("engine.solve_errors_total")
	e.mReads = reg.Counter("engine.snapshot_reads_total")
	e.mWALErrs = reg.Counter("wal.errors_total")
	e.mCompacts = reg.Counter("wal.compactions_total")
	e.hSolve = reg.Histogram("engine.solve_latency")
	e.hCommit = reg.Histogram("engine.commit_latency")
	e.hWALAppend = reg.Histogram("wal.append_latency")
	e.hWALFsync = reg.Histogram("wal.fsync_latency")
	e.hWALCompact = reg.Histogram("wal.compact_latency")
	e.gBatch = reg.Gauge("engine.last_batch_size")
	e.gVersion = reg.Gauge("engine.snapshot_version")
	e.gJobs = reg.Gauge("engine.jobs")
	e.gComps = reg.Gauge("engine.solve_components")
	e.gLargest = reg.Gauge("engine.solve_largest_component")
	e.gSpeedup = reg.Gauge("engine.solve_speedup")
	e.gReused = reg.Gauge("engine.components_reused")
	e.gResolved = reg.Gauge("engine.components_resolved")
	e.gWALRecords = reg.Gauge("wal.records_since_compact")
	e.gWALBytes = reg.Gauge("wal.bytes_since_compact")
	e.gWALSegs = reg.Gauge("wal.segments")
	e.gJain = reg.Gauge("fairness.jain_index")
	e.gMinShare = reg.Gauge("fairness.min_normalized_share")
	e.gMaxShare = reg.Gauge("fairness.max_normalized_share")
	e.gApproxComp = reg.Gauge("engine.approx_components")
	e.gApproxErr = reg.Gauge("engine.approx_error_bound")
	e.gWALFailed = reg.Gauge("engine.wal_failed")
	e.stageHists = make(map[string]*obs.Histogram)
	for _, s := range []string{
		stageQueueWait, stageApply, stageWALEncode, stagePublish,
		core.StageValidate, core.StagePartition, core.StageSolve,
		core.StageMerge, core.StageSolveComponent, core.StageSolveApprox,
	} {
		e.stageHists[s] = reg.Histogram("engine.stage." + s)
	}
	sc.SetOnSolve(func(d time.Duration) { e.hSolve.Observe(d) })
	// The stage hook fires on whichever goroutine drives the solve — always
	// the committer (or New's goroutine, for the initial publish below), so
	// touching e.tb and e.solveSpanSum needs no lock.
	sc.SetOnStage(func(ev core.StageEvent) {
		e.stageObserve(ev.Name, ev.Duration)
		tb := e.tb
		if tb == nil {
			return
		}
		if ev.Detail {
			tb.Detail(ev.Name, ev.Duration)
		} else {
			tb.Stage(ev.Name, ev.Duration)
			e.solveSpanSum += ev.Duration
		}
	})
	if cfg.Log != nil {
		// The engine drives the WAL from the committer goroutine only, so
		// the observer may touch e.tb for the same reason as the stage hook.
		cfg.Log.SetObserver(func(op string, d time.Duration) {
			switch op {
			case "append":
				e.hWALAppend.Observe(d)
			case "sync":
				e.hWALFsync.Observe(d)
			case "compact":
				e.hWALCompact.Observe(d)
			}
			if tb := e.tb; tb != nil {
				switch op {
				case "append":
					tb.Stage(stageWALAppend, d)
				case "sync":
					tb.Stage(stageWALFsync, d)
				}
			}
		})
	}
	if _, _, err := e.publish(0); err != nil {
		return nil, fmt.Errorf("serve: initial solve: %w", err)
	}
	e.updateWALGauges()
	go e.commitLoop()
	if cfg.Log != nil && cfg.CompactInterval > 0 {
		go e.compactTicker()
	}
	return e, nil
}

// Close stops the committer after draining already-queued mutations
// (they commit normally), then — with a WAL attached — folds the log into
// a final snapshot and seals it, so a restart recovers from the snapshot
// alone. Later mutations fail with ErrClosed; reads keep serving the last
// published snapshot.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		<-e.done
		return nil
	}
	e.closed = true
	close(e.ops)
	e.mu.Unlock()
	<-e.done
	return nil
}

// Crash is test support for durability: it simulates process death by
// stopping the committer without draining the queue, sealing the WAL or
// writing a final snapshot. Whatever the log's group commits acknowledged
// is exactly what a subsequent wal.Open of the same directory recovers.
// Queued and later mutations fail with ErrClosed.
func (e *Engine) Crash() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		e.crashOnce.Do(func() { close(e.crash) })
	}
	e.mu.Unlock()
	<-e.done
}

// submit enqueues a mutation and blocks until its batch commits or ctx is
// cancelled. Cancellation while the op is still queued abandons it — the
// committer will skip it — instead of blocking on the batch window.
func (e *Engine) submit(ctx context.Context, exclusive bool, rec *wal.Mutation, apply func(*scheduler.Scheduler) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if e.walFailed.Load() {
		return ErrWALFailed
	}
	o := &op{
		apply:      apply,
		rec:        rec,
		exclusive:  exclusive,
		traceID:    span.FromContext(ctx),
		parentID:   span.ParentFromContext(ctx),
		enqueuedAt: time.Now(),
		done:       make(chan struct{}),
	}
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return ErrClosed
	}
	select {
	case e.ops <- o:
		e.mu.RUnlock()
	case <-ctx.Done():
		e.mu.RUnlock()
		return ctx.Err()
	}
	select {
	case <-o.done:
		return o.err
	case <-ctx.Done():
		if o.state.CompareAndSwap(opQueued, opCancelled) {
			// The committer had not reached the op; it will be skipped.
			e.mCancels.Inc()
			return ctx.Err()
		}
		// The committer already took it: the commit's outcome stands.
		<-o.done
		return o.err
	}
}

// commitLoop is the single committer goroutine: gather a batch, apply it,
// solve once, make it durable, publish, release the batch's waiters.
func (e *Engine) commitLoop() {
	defer close(e.done)
	for {
		if o := e.pending; o != nil {
			e.pending = nil
			e.commit([]*op{o})
			e.maybeCompact()
			continue
		}
		select {
		case o, ok := <-e.ops:
			if !ok {
				e.finalize()
				return
			}
			if o.exclusive {
				e.commit([]*op{o})
			} else {
				e.commit(e.gather(o))
			}
			e.maybeCompact()
		case <-e.compactCh:
			e.compactNow()
		case <-e.crash:
			e.releaseQueued()
			return
		}
	}
}

// finalize is the graceful-shutdown tail: fold the WAL into a final
// snapshot and seal it.
func (e *Engine) finalize() {
	if e.cfg.Log == nil {
		return
	}
	e.compactNow()
	if err := e.cfg.Log.Close(); err != nil {
		e.mWALErrs.Inc()
	}
}

// releaseQueued fails whatever the simulated crash stranded in the queue.
func (e *Engine) releaseQueued() {
	for {
		select {
		case o := <-e.ops:
			o.err = ErrClosed
			close(o.done)
		default:
			return
		}
	}
}

// gather collects up to MaxBatch ops: everything already queued, plus —
// when BatchWindow > 0 — whatever else arrives within the window. An
// exclusive op encountered mid-gather ends the batch; it is parked in
// e.pending and committed alone next.
func (e *Engine) gather(first *op) []*op {
	batch := []*op{first}
	if e.cfg.MaxBatch <= 1 {
		return batch
	}
	var window <-chan time.Time
	if e.cfg.BatchWindow > 0 {
		t := time.NewTimer(e.cfg.BatchWindow)
		defer t.Stop()
		window = t.C
	}
	for len(batch) < e.cfg.MaxBatch {
		select {
		case o, ok := <-e.ops:
			if !ok {
				return batch // closing: commit what we have
			}
			if o.exclusive {
				e.pending = o
				return batch
			}
			batch = append(batch, o)
		default:
			if window == nil {
				return batch
			}
			select {
			case o, ok := <-e.ops:
				if !ok {
					return batch
				}
				if o.exclusive {
					e.pending = o
					return batch
				}
				batch = append(batch, o)
			case <-window:
				return batch
			}
		}
	}
	return batch
}

// commit applies a batch, logs it, re-solves once, publishes the new
// snapshot, and wakes the batch's submitters. Ops whose submitter
// cancelled while queued are skipped, not applied.
func (e *Engine) commit(batch []*op) {
	start := time.Now()
	e.commitSeq++
	e.beginTrace(batch, start)
	tApply := time.Now()
	var recs []wal.Mutation
	applied := 0
	var requests []span.ID
	for _, o := range batch {
		if !o.state.CompareAndSwap(opQueued, opTaken) {
			o.err = context.Canceled
			continue
		}
		applied++
		if o.traceID != "" {
			requests = append(requests, o.traceID)
		}
		o.err = o.apply(e.sc)
		if o.err == nil && o.rec != nil && e.cfg.Log != nil {
			recs = append(recs, *o.rec)
		}
	}
	applyD := time.Since(tApply)
	e.stageObserve(stageApply, applyD)
	if tb := e.tb; tb != nil {
		tb.SetBatch(applied, requests)
		tb.Stage(stageApply, applyD)
	}
	// Durability barrier: one record, one fsync for the whole batch. On
	// failure nothing is acknowledged and nothing further will be — the
	// published snapshot keeps matching what recovery would rebuild.
	if len(recs) > 0 {
		if err := e.logBatch(recs); err != nil {
			e.failWAL(batch, err)
			e.finishCommit(batch, start)
			return
		}
	}
	e.solveSpanSum = 0
	pubStart := time.Now()
	snap, st, err := e.publish(applied)
	if err != nil {
		// The mutations were applied but the allocation could not be
		// recomputed; surface the solve failure to every op that had
		// succeeded so no caller mistakes a stale snapshot for fresh.
		e.mSolveErrs.Inc()
		for _, o := range batch {
			if o.err == nil {
				o.err = err
			}
		}
	} else {
		e.gJobs.Set(float64(len(snap.Shares)))
		e.gVersion.Set(float64(snap.Version))
		e.gComps.Set(float64(st.LastComponents))
		e.gLargest.Set(float64(st.LastLargestComponent))
		e.gSpeedup.Set(st.LastSpeedup)
		e.gReused.Set(float64(st.LastReused))
		e.gResolved.Set(float64(st.LastResolved))
		e.gApproxComp.Set(float64(st.LastApproxComponents))
		e.gApproxErr.Set(st.LastApproxErrorBound)
		e.gJain.Set(snap.Fairness.Jain())
		mn, mx := snap.Fairness.MinMax()
		e.gMinShare.Set(mn)
		e.gMaxShare.Set(mx)
	}
	// The solver's stage events streamed into the trace during publish; the
	// "publish" span covers the remainder — the controller's share-map and
	// shell carry, snapshot building and the gauge refresh — keeping the
	// timeline contiguous.
	pubOver := time.Since(pubStart) - e.solveSpanSum
	e.stageObserve(stagePublish, pubOver)
	if tb := e.tb; tb != nil {
		tb.Stage(stagePublish, pubOver)
	}
	if len(batch) == 1 && batch[0].exclusive {
		e.mExclusive.Inc()
	}
	e.finishCommit(batch, start)
}

func (e *Engine) finishCommit(batch []*op, start time.Time) {
	e.mMutations.Add(int64(len(batch)))
	e.mCommits.Inc()
	e.gBatch.Set(float64(len(batch)))
	total := time.Since(start)
	e.hCommit.Observe(total)
	e.updateWALGauges()
	t := e.finishTrace(batch)
	if e.cfg.Logger != nil && e.cfg.SlowCommit > 0 && total >= e.cfg.SlowCommit {
		attrs := []any{
			slog.Uint64("batch_seq", e.commitSeq),
			slog.Int("batch_size", len(batch)),
			slog.Duration("total", total),
		}
		if t != nil {
			attrs = append(attrs, slog.String("trace_id", string(t.ID)))
			for _, sp := range t.Spans {
				if !sp.Detail {
					attrs = append(attrs, slog.Float64("stage."+sp.Name+"_seconds", sp.Duration))
				}
			}
		}
		e.cfg.Logger.Warn("slow commit", attrs...)
	}
	for _, o := range batch {
		close(o.done)
	}
}

// beginTrace opens the commit's trace when a Recorder is configured. The
// trace starts at the enqueue time of the earliest mutation in the batch
// (so the first span is the batch's queue wait) and takes its ID from the
// first request-minted trace ID riding in the batch, falling back to a
// fresh one. The queue-wait histogram is fed whether or not tracing is on.
func (e *Engine) beginTrace(batch []*op, start time.Time) {
	earliest := start
	var id, parent span.ID
	for _, o := range batch {
		if !o.enqueuedAt.IsZero() && o.enqueuedAt.Before(earliest) {
			earliest = o.enqueuedAt
		}
		if id == "" {
			id = o.traceID
		}
		if parent == "" {
			parent = o.parentID
		}
	}
	wait := start.Sub(earliest)
	e.stageObserve(stageQueueWait, wait)
	if e.cfg.Traces == nil {
		return
	}
	if id == "" {
		id = span.MintID()
	}
	tb := span.Begin(id, earliest)
	tb.SetSeq(e.commitSeq)
	tb.SetParent(parent)
	tb.Stage(stageQueueWait, wait)
	e.tb = tb
}

// finishTrace seals and records the commit's trace, returning it for the
// slow-commit log (nil when tracing is off).
func (e *Engine) finishTrace(batch []*op) *span.Trace {
	tb := e.tb
	if tb == nil {
		return nil
	}
	e.tb = nil
	for _, o := range batch {
		if o.err != nil && !errors.Is(o.err, context.Canceled) {
			tb.SetError(o.err)
			break
		}
	}
	t := tb.Finish()
	e.cfg.Traces.Record(t)
	e.cfg.SlowTraces.Record(t) // nil-safe no-op when retention is off
	return t
}

// stageObserve feeds one engine.stage.<name> latency histogram, falling
// back to a registry lookup for stage names outside the precreated set.
func (e *Engine) stageObserve(name string, d time.Duration) {
	h, ok := e.stageHists[name]
	if !ok {
		h = e.reg.Histogram("engine.stage." + name)
	}
	h.Observe(d)
}

// logBatch appends the batch's successful mutations as one WAL record and
// group-fsyncs it. Append/fsync latencies are observed by the wal.Log
// observer installed in New, which also feeds the in-flight trace.
func (e *Engine) logBatch(recs []wal.Mutation) error {
	tEnc := time.Now()
	payload, err := wal.EncodeBatch(recs)
	encD := time.Since(tEnc)
	e.stageObserve(stageWALEncode, encD)
	if tb := e.tb; tb != nil {
		tb.Stage(stageWALEncode, encD)
	}
	if err != nil {
		return err
	}
	if err := e.cfg.Log.Append(payload); err != nil {
		return err
	}
	return e.cfg.Log.Sync()
}

// failWAL fail-stops mutations after a durability failure: every op in
// the batch — including ones whose in-memory apply succeeded — reports
// the failure, and the snapshot is NOT republished, so reads keep serving
// the last acknowledged (and recoverable) state.
func (e *Engine) failWAL(batch []*op, err error) {
	e.mWALErrs.Inc()
	e.markWALFailed()
	werr := fmt.Errorf("%w: %v", ErrWALFailed, err)
	for _, o := range batch {
		if o.err == nil {
			o.err = werr
		}
	}
}

// markWALFailed trips the durability fail-stop and its gauge.
func (e *Engine) markWALFailed() {
	e.walFailed.Store(true)
	e.gWALFailed.Set(1)
}

// maybeCompact folds the log once the record tail outgrows CompactBytes.
func (e *Engine) maybeCompact() {
	if e.cfg.Log == nil || e.walFailed.Load() {
		return
	}
	if e.cfg.Log.Stats().BytesSinceCompact >= e.cfg.CompactBytes {
		e.compactNow()
	}
}

// compactNow snapshots the controller and folds the log. It runs on the
// committer goroutine between batches, so the state it captures is
// exactly the state the log's records produced — no mutation can
// interleave.
func (e *Engine) compactNow() {
	if e.cfg.Log == nil || e.walFailed.Load() {
		return
	}
	state, err := wal.EncodeState(e.sc.Snapshot())
	if err != nil {
		e.mWALErrs.Inc()
		return
	}
	if err := e.cfg.Log.Compact(state); err != nil {
		e.mWALErrs.Inc()
		e.markWALFailed()
		return
	}
	e.mCompacts.Inc()
	e.updateWALGauges()
}

func (e *Engine) updateWALGauges() {
	if e.cfg.Log == nil {
		return
	}
	ws := e.cfg.Log.Stats()
	e.gWALRecords.Set(float64(ws.RecordsSinceCompact))
	e.gWALBytes.Set(float64(ws.BytesSinceCompact))
	e.gWALSegs.Set(float64(ws.Segments))
}

// compactTicker feeds periodic compaction requests to the committer.
func (e *Engine) compactTicker() {
	t := time.NewTicker(e.cfg.CompactInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			select {
			case e.compactCh <- struct{}{}:
			default:
			}
		case <-e.done:
			return
		}
	}
}

// publish re-solves (if dirty) and swaps in the next snapshot. Everything
// the snapshot carries comes from ONE read of the controller — shares,
// shell, counters, fairness summary and policy are of the same instant —
// and is published as handed over, by pointer: nothing here walks or
// copies the job set. The counters are returned for the commit's gauges.
func (e *Engine) publish(batchSize int) (*AllocSnapshot, scheduler.Stats, error) {
	solveStart := time.Now()
	v, err := e.sc.ResolveView()
	if err != nil {
		return nil, scheduler.Stats{}, err
	}
	prev := e.snap.Load()
	next := &AllocSnapshot{
		Version:            1,
		Policy:             v.Policy,
		Taken:              time.Now(),
		Shares:             v.Shares,
		Inst:               v.Inst,
		BatchSize:          batchSize,
		SolveDuration:      time.Since(solveStart),
		ComponentsReused:   v.Stats.LastReused,
		ComponentsResolved: v.Stats.LastResolved,
		Fairness:           v.Fairness,
	}
	if prev != nil {
		next.Version = prev.Version + 1
	}
	e.snap.Store(next)
	return next, v.Stats, nil
}

// Current returns the latest published allocation snapshot. It never
// blocks and never contends with writers.
func (e *Engine) Current() *AllocSnapshot {
	e.mReads.Inc()
	return e.snap.Load()
}

// SnapshotVersion reports the published snapshot's version without
// counting as a snapshot read — the cluster router's version-vector probe.
func (e *Engine) SnapshotVersion() uint64 { return e.snap.Load().Version }

// ReadyErr reports whether the engine can accept mutations: nil when
// healthy, ErrWALFailed after a durability fail-stop, ErrClosed after
// Close/Crash. Reads keep serving either way; /v1/readyz distinguishes
// "serving but degraded" from healthy exactly on this.
func (e *Engine) ReadyErr() error {
	if e.walFailed.Load() {
		return ErrWALFailed
	}
	e.mu.RLock()
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	return nil
}

// --- Mutations (all group-committed, context-aware) ----------------------

// AddJob registers a job; see scheduler.AddJob.
func (e *Engine) AddJob(ctx context.Context, id string, weight float64, demand, work []float64) error {
	return e.submit(ctx, false,
		&wal.Mutation{Op: wal.OpAddJob, ID: id, Weight: weight, Demand: demand, Work: work},
		func(sc *scheduler.Scheduler) error {
			return sc.AddJob(id, weight, demand, work)
		})
}

// AddJobs atomically registers a whole set of jobs in ONE commit: one
// queue slot, one solve, one WAL record, all-or-nothing semantics (see
// scheduler.AddJobs).
func (e *Engine) AddJobs(ctx context.Context, specs []scheduler.JobSpec) error {
	return e.submit(ctx, false,
		&wal.Mutation{Op: wal.OpAddJobs, Jobs: specs},
		func(sc *scheduler.Scheduler) error {
			return sc.AddJobs(specs)
		})
}

// RemoveJob deregisters a job.
func (e *Engine) RemoveJob(ctx context.Context, id string) error {
	return e.submit(ctx, false,
		&wal.Mutation{Op: wal.OpRemoveJob, ID: id},
		func(sc *scheduler.Scheduler) error {
			return sc.RemoveJob(id)
		})
}

// ReportProgress subtracts completed work; it reports whether the job
// finished.
func (e *Engine) ReportProgress(ctx context.Context, id string, done []float64) (bool, error) {
	var completed bool
	err := e.submit(ctx, false,
		&wal.Mutation{Op: wal.OpProgress, ID: id, Done: done},
		func(sc *scheduler.Scheduler) error {
			var err error
			completed, err = sc.ReportProgress(id, done)
			return err
		})
	return completed, err
}

// UpdateWeight changes a job's share weight.
func (e *Engine) UpdateWeight(ctx context.Context, id string, weight float64) error {
	return e.submit(ctx, false,
		&wal.Mutation{Op: wal.OpWeight, ID: id, Weight: weight},
		func(sc *scheduler.Scheduler) error {
			return sc.UpdateWeight(id, weight)
		})
}

// SetExternalWeight installs the cluster router's Enhanced-AMF weight-sum
// broadcast (scheduler.SetExternalWeight). It is group-committed and WAL
// logged like any other mutation, so a replica replaying this shard's log
// reconstructs the same floors the shard solved under.
func (e *Engine) SetExternalWeight(ctx context.Context, w float64) error {
	return e.submit(ctx, false,
		&wal.Mutation{Op: wal.OpExternalWeight, Weight: w},
		func(sc *scheduler.Scheduler) error {
			return sc.SetExternalWeight(w)
		})
}

// PolicyName reports the wire name of the controller's active fairness
// policy.
func (e *Engine) PolicyName() string { return e.sc.PolicyName() }

// RuntimeConfig reports the controller's runtime-tuning document:
// policy and approximate-solver routing. The context parameter exists
// for surface uniformity with backends whose config read fans out
// remotely (the cluster router); here it is only checked for
// cancellation.
func (e *Engine) RuntimeConfig(ctx context.Context) (scheduler.RuntimeConfig, error) {
	if err := ctx.Err(); err != nil {
		return scheduler.RuntimeConfig{}, err
	}
	return e.sc.RuntimeConfig(), nil
}

// ApplyConfig applies one runtime-tuning patch (PATCH /v1/config) — the
// only runtime switch for the fairness policy and the solver knobs. Like
// Restore it is exclusive — the batch pipeline quiesces and the patch
// commits alone, so every other commit is solved entirely under one
// policy — and WAL-logged (OpSetConfig), so recovery replays the tuning
// change at the same point in the mutation order and compaction persists
// the result. The patch is validated against the current state before it
// is enqueued, so an invalid patch fails fast and never poisons a WAL
// record.
func (e *Engine) ApplyConfig(ctx context.Context, p scheduler.ConfigPatch) error {
	if err := e.sc.ValidateConfigPatch(p); err != nil {
		return err
	}
	return e.submit(ctx, true,
		&wal.Mutation{Op: wal.OpSetConfig, Config: &p},
		func(sc *scheduler.Scheduler) error {
			return sc.ApplyConfigPatch(p)
		})
}

// Restore replaces the controller's job set from a state snapshot. The
// swap is exclusive: the committer quiesces the batch pipeline and
// commits the restore alone, so no concurrent mutation lands in the same
// commit as the state replacement.
func (e *Engine) Restore(ctx context.Context, snap scheduler.Snapshot) error {
	return e.submit(ctx, true,
		&wal.Mutation{Op: wal.OpRestore, State: &snap},
		func(sc *scheduler.Scheduler) error {
			return sc.Restore(snap)
		})
}

// explainEntry is one cached derivation.
type explainEntry struct {
	version uint64
	ex      *core.Explanation
}

// ExplainResult is an allocation explanation plus the provenance readers
// need to interpret it: which snapshot version it explains, under which
// policy, and — in a cluster — which shard derived it. It is the neutral
// shape shared by the engine, the cluster router and read replicas (the
// api package maps it onto the wire response).
type ExplainResult struct {
	Version     uint64
	Policy      string
	Shard       string // owning shard, set by cluster routing; "" standalone
	Explanation *core.Explanation
}

// Explain derives the water-filling explanation for the current published
// snapshot: per-job final level, freeze round, binding sites with
// saturation residuals and the Enhanced-AMF floor-binding flag, per-site
// saturation and membership. The derivation is RCU-consistent — it reads
// exactly the snapshot's instance and share rows — and cached per
// version, so repeated reads are one pointer load. A non-empty job must
// exist (scheduler.ErrUnknownJob otherwise); the full explanation is
// returned either way so callers can render site context.
func (e *Engine) Explain(ctx context.Context, job string) (*ExplainResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	snap := e.Current()
	ex := e.explanationFor(snap)
	if job != "" && ex.JobByName(job) == nil {
		return nil, fmt.Errorf("%w: %q", scheduler.ErrUnknownJob, job)
	}
	return &ExplainResult{
		Version:     snap.Version,
		Policy:      snap.Policy,
		Explanation: ex,
	}, nil
}

// explanationFor returns the (possibly cached) explanation of one
// snapshot. Policy switches and floor changes republish — the version key
// covers them.
func (e *Engine) explanationFor(snap *AllocSnapshot) *core.Explanation {
	if ent := e.explainCache.Load(); ent != nil && ent.version == snap.Version {
		return ent.ex
	}
	e.explainMu.Lock()
	defer e.explainMu.Unlock()
	if ent := e.explainCache.Load(); ent != nil && ent.version == snap.Version {
		return ent.ex
	}
	share := make([][]float64, len(snap.Inst.JobName))
	for i, id := range snap.Inst.JobName {
		share[i] = snap.Shares[id]
		if share[i] == nil {
			share[i] = make([]float64, snap.Inst.NumSites())
		}
	}
	var floors []float64
	if e.sc.GlobalWeightFloors() {
		floors = core.EqualShares(snap.Inst)
	}
	ex := core.Explain(snap.Inst, share, floors)
	e.explainCache.Store(&explainEntry{version: snap.Version, ex: ex})
	return ex
}

// --- Reads (lock-free, from the published snapshot) ---------------------

// Allocation returns every job's shares from the current snapshot.
func (e *Engine) Allocation(ctx context.Context) (map[string][]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.Current().Shares, nil
}

// Shares returns one job's share vector from the current snapshot.
func (e *Engine) Shares(ctx context.Context, id string) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sh, ok := e.Current().Shares[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", scheduler.ErrUnknownJob, id)
	}
	return sh, nil
}

// Stats passes through the controller's counters.
func (e *Engine) Stats() scheduler.Stats { return e.sc.Stats() }

// Snapshot returns the controller's persistable job-set state.
func (e *Engine) Snapshot() scheduler.Snapshot { return e.sc.Snapshot() }
