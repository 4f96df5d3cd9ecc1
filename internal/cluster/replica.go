package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/wal"
)

// codedError is an error carrying its own stable API code (api.Coder).
type codedError struct{ msg, code string }

func (e *codedError) Error() string   { return e.msg }
func (e *codedError) APICode() string { return e.code }

// ErrReadOnly rejects mutations on a read replica: writes go to the
// primary; the replica only tails its WAL. Served as 400
// invalid_argument — the client addressed a write to a read endpoint.
var ErrReadOnly error = &codedError{
	msg: "cluster: replica is read-only, mutate the primary", code: api.CodeInvalidArgument}

// ErrSyncing is returned by a replica's reads and ReadyErr until it has
// caught up with the primary's durable head for the first time. Served
// as 503 unavailable: retryable once replay finishes.
var ErrSyncing error = &codedError{
	msg: "cluster: replica replaying WAL, not caught up yet", code: api.CodeUnavailable}

// ReplicaConfig configures a WAL-tailing read replica.
type ReplicaConfig struct {
	// Source streams the primary's WAL (the primary's ship endpoint).
	Source *wal.ShipClient
	// SiteCapacity and Policy must match the primary's deployment: the
	// WAL carries mutations, not configuration. (A policy mismatch is
	// caught on the first snapshot reset — the snapshot's policy header
	// fails scheduler.Restore; runtime switches on the primary replay
	// through the log's config records and keep the replica aligned.)
	SiteCapacity []float64
	Policy       policy.Policy
	// Interval is the poll cadence once caught up (default 50ms). While
	// behind, the replica polls continuously.
	Interval time.Duration
	// Metrics receives replication gauges and counters; nil creates a
	// private registry.
	Metrics *obs.Registry
	// TraceBuffer sizes the replay-trace ring: one trace per applied WAL
	// batch (stages: decode, apply; Shard "replica", Seq the replica's
	// local batch counter — WAL payloads carry no sequence numbers).
	// 0 uses the default (64); negative disables replay tracing.
	TraceBuffer int
}

// ReplicaView is one published replica snapshot: an immutable allocation
// the read path serves lock-free (RCU — the poll loop publishes a fresh
// view per applied poll, readers load the pointer and never block it).
type ReplicaView struct {
	// Shares maps job ID to its per-site share vector. Read-only.
	Shares map[string][]float64
	// Version counts published views — the replica's monotonic sequence.
	Version uint64
	// Cursor is the WAL position this view reflects; Head is the
	// primary's durable head at fetch time. Head − Cursor is the lag.
	Cursor, Head wal.Cursor
	// AppliedAt is when this view was published (staleness anchor).
	AppliedAt time.Time
}

// Replica tails a primary's WAL over HTTP and serves read-only,
// stale-bounded state: every acknowledged batch is replayed through a
// local scheduler (deterministically — see wal.Mutation.Apply and
// TestReplayDeterminism) and published as a lock-free RCU snapshot.
// It implements api.Backend (mutations return ErrReadOnly), so
// api.NewBackendServer turns it into a read endpoint with /v1/readyz
// reporting catch-up.
type Replica struct {
	cfg ReplicaConfig
	sc  *scheduler.Scheduler
	reg *obs.Registry

	// traces records one replay trace per applied WAL batch (nil when
	// disabled). batchSeq is the replica's local batch counter — it owns
	// the poll goroutine, no synchronization needed.
	traces   *span.Recorder
	batchSeq uint64

	view     atomic.Pointer[ReplicaView]
	caughtUp atomic.Bool
	lastErr  atomic.Pointer[string]

	gLagSegments *obs.Gauge
	gLagBytes    *obs.Gauge
	gCaughtUp    *obs.Gauge
	gStaleness   *obs.Gauge
	cBatches     *obs.Counter
	cMutations   *obs.Counter
	cResets      *obs.Counter
	cPollErrors  *obs.Counter
	cApplyFailed *obs.Counter

	stop chan struct{}
	done chan struct{}
}

// NewReplica builds and starts a replica; Close stops it.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("cluster: replica needs a WAL source")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 50 * time.Millisecond
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	sc, err := scheduler.New(scheduler.Config{SiteCapacity: cfg.SiteCapacity, Policy: cfg.Policy})
	if err != nil {
		return nil, err
	}
	var traces *span.Recorder
	if cfg.TraceBuffer >= 0 {
		size := cfg.TraceBuffer
		if size == 0 {
			size = 64
		}
		traces = span.NewRecorder(size)
	}
	r := &Replica{
		cfg:    cfg,
		sc:     sc,
		reg:    reg,
		traces: traces,

		gLagSegments: reg.Gauge("replica.lag_segments"),
		gLagBytes:    reg.Gauge("replica.lag_bytes"),
		gCaughtUp:    reg.Gauge("replica.caught_up"),
		gStaleness:   reg.Gauge("replica.staleness_seconds"),
		cBatches:     reg.Counter("replica.batches_applied"),
		cMutations:   reg.Counter("replica.mutations_applied"),
		cResets:      reg.Counter("replica.resets"),
		cPollErrors:  reg.Counter("replica.poll_errors"),
		cApplyFailed: reg.Counter("replica.apply_failed"),

		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go r.run()
	return r, nil
}

// Close stops the poll loop. The last published view keeps serving.
func (r *Replica) Close() error {
	select {
	case <-r.stop:
		return nil
	default:
	}
	close(r.stop)
	<-r.done
	return nil
}

func (r *Replica) run() {
	defer close(r.done)
	cur := wal.Cursor{}
	version := uint64(0)
	for {
		next, v, err := r.syncOnce(cur, version)
		cur, version = next, v
		if err != nil {
			r.cPollErrors.Inc()
			msg := err.Error()
			r.lastErr.Store(&msg)
			if errors.Is(err, wal.ErrRetiredState) {
				// The log can never be replayed past this record: stop
				// polling and keep serving the last view published before it.
				return
			}
		}
		select {
		case <-r.stop:
			return
		case <-time.After(r.cfg.Interval):
		}
	}
}

// syncOnce polls until caught up with the primary's durable head (or an
// error), publishing a fresh view whenever state changed.
func (r *Replica) syncOnce(cur wal.Cursor, version uint64) (wal.Cursor, uint64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), readTimeout)
	defer cancel()
	for {
		resp, err := r.cfg.Source.Fetch(ctx, cur)
		if err != nil {
			return cur, version, err
		}
		changed := false
		if resp.Reset {
			r.cResets.Inc()
			snap, err := wal.DecodeState(resp.State)
			if err != nil {
				return cur, version, err
			}
			if err := r.sc.Restore(snap); err != nil {
				return cur, version, err
			}
			changed = true
		}
		for _, payload := range resp.Records {
			r.batchSeq++
			var tb *span.Builder
			if r.traces != nil {
				tb = span.Begin(span.MintID(), time.Now())
				tb.SetSeq(r.batchSeq)
				tb.SetShard("replica")
			}
			t0 := time.Now()
			ms, err := wal.DecodeBatch(payload)
			if tb != nil {
				tb.Stage("decode", time.Since(t0))
			}
			if errors.Is(err, wal.ErrRetiredState) {
				// Unpublished: the view stays at the poll before this one.
				return cur, version, err
			}
			if err != nil {
				r.cApplyFailed.Inc()
				if tb != nil {
					tb.SetError(err)
					r.traces.Record(tb.Finish())
				}
				continue
			}
			r.cBatches.Inc()
			t0 = time.Now()
			var applyErr error
			for _, m := range ms {
				if err := m.Apply(r.sc); err != nil {
					r.cApplyFailed.Inc()
					applyErr = err
				} else {
					r.cMutations.Inc()
				}
			}
			if tb != nil {
				tb.Stage("apply", time.Since(t0))
				tb.SetBatch(len(ms), nil)
				tb.SetError(applyErr)
				r.traces.Record(tb.Finish())
			}
			changed = true
		}
		cur = resp.Next
		caught := !cur.Before(resp.Head)
		if changed || r.view.Load() == nil {
			version++
			if err := r.publish(version, cur, resp.Head); err != nil {
				return cur, version, err
			}
		}
		r.updateLag(cur, resp.Head, caught)
		if caught {
			r.caughtUp.Store(true)
			return cur, version, nil
		}
		select {
		case <-r.stop:
			return cur, version, nil
		default:
		}
	}
}

// publish re-solves and swaps in the next view. The share map is the
// controller's own immutable map, published by pointer exactly as the
// serving engine publishes it — a replayed batch that touched one
// component does not copy every job's row.
func (r *Replica) publish(version uint64, cur, head wal.Cursor) error {
	_, shares, err := r.sc.Resolve()
	if err != nil {
		return fmt.Errorf("cluster: replica solve: %w", err)
	}
	r.view.Store(&ReplicaView{
		Shares:    shares,
		Version:   version,
		Cursor:    cur,
		Head:      head,
		AppliedAt: time.Now(),
	})
	return nil
}

func (r *Replica) updateLag(cur, head wal.Cursor, caught bool) {
	r.gLagSegments.Set(float64(head.Segment) - float64(cur.Segment))
	if head.Segment == cur.Segment {
		r.gLagBytes.Set(float64(head.Offset - cur.Offset))
	} else {
		r.gLagBytes.Set(float64(head.Offset))
	}
	if caught {
		r.gCaughtUp.Set(1)
		r.gStaleness.Set(0)
	} else {
		r.gCaughtUp.Set(0)
		if v := r.view.Load(); v != nil {
			r.gStaleness.Set(time.Since(v.AppliedAt).Seconds())
		}
	}
}

// View returns the current published snapshot (nil before the first
// successful poll).
func (r *Replica) View() *ReplicaView { return r.view.Load() }

// Metrics returns the registry carrying the replication gauges.
func (r *Replica) Metrics() *obs.Registry { return r.reg }

// Traces returns the replay-trace ring — one trace per applied WAL batch,
// tagged Shard "replica" — for mounting at the read endpoint's
// /v1/traces (api.Server.SetTraces). Nil when replay tracing is disabled.
func (r *Replica) Traces() *span.Recorder { return r.traces }

// Explain derives the water-filling explanation from the replica's
// replayed job set: same evidence as the primary, bounded
// by the replica's staleness. Unavailable (ErrSyncing) before the first
// published view.
func (r *Replica) Explain(ctx context.Context, job string) (*serve.ExplainResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v := r.view.Load()
	if v == nil {
		return nil, ErrSyncing
	}
	ex, err := r.sc.Explain()
	if err != nil {
		return nil, err
	}
	if job != "" && ex.JobByName(job) == nil {
		return nil, fmt.Errorf("%w: %q", scheduler.ErrUnknownJob, job)
	}
	return &serve.ExplainResult{
		Version: v.Version, Policy: r.sc.PolicyName(), Shard: "replica",
		Explanation: ex,
	}, nil
}

// LastError reports the most recent poll error ("" when none).
func (r *Replica) LastError() string {
	if p := r.lastErr.Load(); p != nil {
		return *p
	}
	return ""
}

// ReadyErr is unready (503 through the API) until the replica has caught
// up with the primary's durable head once.
func (r *Replica) ReadyErr() error {
	if !r.caughtUp.Load() {
		if msg := r.LastError(); msg != "" {
			return fmt.Errorf("%w (last poll error: %s)", ErrSyncing, msg)
		}
		return ErrSyncing
	}
	return nil
}

// SnapshotVersion is the published view's version (0 before the first).
func (r *Replica) SnapshotVersion() uint64 {
	if v := r.view.Load(); v != nil {
		return v.Version
	}
	return 0
}

// --- api.Backend: reads served from the RCU view, mutations rejected ---

func (r *Replica) AddJob(ctx context.Context, id string, weight float64, demand, work []float64) error {
	return ErrReadOnly
}

func (r *Replica) AddJobs(ctx context.Context, specs []scheduler.JobSpec) error { return ErrReadOnly }

func (r *Replica) RemoveJob(ctx context.Context, id string) error { return ErrReadOnly }

func (r *Replica) ReportProgress(ctx context.Context, id string, done []float64) (bool, error) {
	return false, ErrReadOnly
}

func (r *Replica) UpdateWeight(ctx context.Context, id string, weight float64) error {
	return ErrReadOnly
}

func (r *Replica) Shares(ctx context.Context, id string) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v := r.view.Load()
	if v == nil {
		return nil, ErrSyncing
	}
	shares, ok := v.Shares[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", scheduler.ErrUnknownJob, id)
	}
	return shares, nil
}

func (r *Replica) Allocation(ctx context.Context) (map[string][]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v := r.view.Load()
	if v == nil {
		return nil, ErrSyncing
	}
	return v.Shares, nil
}

// PolicyName reports the replica's active fairness policy — it follows
// the primary through replayed config patches.
func (r *Replica) PolicyName() string { return r.sc.PolicyName() }

// RuntimeConfig reports the replayed scheduler's runtime-tuning state,
// which follows the primary through replayed config patches. Unavailable
// (ErrSyncing) before the first published view.
func (r *Replica) RuntimeConfig(ctx context.Context) (scheduler.RuntimeConfig, error) {
	if err := ctx.Err(); err != nil {
		return scheduler.RuntimeConfig{}, err
	}
	if r.view.Load() == nil {
		return scheduler.RuntimeConfig{}, ErrSyncing
	}
	return r.sc.RuntimeConfig(), nil
}

// ApplyConfig is rejected: the replica's config follows the primary's
// through the WAL.
func (r *Replica) ApplyConfig(ctx context.Context, p scheduler.ConfigPatch) error {
	return ErrReadOnly
}

func (r *Replica) Stats() scheduler.Stats { return r.sc.Stats() }

func (r *Replica) Snapshot() scheduler.Snapshot { return r.sc.Snapshot() }

func (r *Replica) Restore(ctx context.Context, snap scheduler.Snapshot) error { return ErrReadOnly }
