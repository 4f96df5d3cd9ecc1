package serve

import (
	"log/slog"
	"math"
	"sort"
	"time"

	"repro/internal/scheduler"
	"repro/internal/wal"
)

// Doppel-style phase reconciliation (Narula et al., OSDI 2014, via
// ddtxn), single-committer form. The scheduler's classifier marks the
// components that are mutation-dirtied by almost every commit as hot;
// this file makes the committer accumulate commutative mutations
// (progress reports, weight updates) targeting hot components in
// per-component delta buffers instead of applying them — so the hot
// component is not dirtied and the commit's solve skips it — and fold
// each buffer into ONE merged mutation and one solve at phase
// boundaries: every MaxBatches commits carrying buffered deltas, or
// MaxIntervalMS after the first unreconciled delta, whichever trips
// first.
//
// Invariants the buffering preserves:
//
//   - Durability is unchanged. A buffered mutation's WAL record is
//     appended (and fsynced) in its original accept batch, exactly like
//     an applied one, and the caller is only acknowledged after that
//     fsync. Replay applies the original mutations in accept order, so
//     recovery is phase-free and deterministic.
//
//   - Acknowledged outcomes are exact. Buffering is refused for anything
//     whose result could depend on ordering: mutations on cold
//     components, invalid arguments (the ordered path produces the
//     error), and progress that could exhaust a site (the completed ack
//     and the component topology depend on it — the component is
//     reconciled first and the op applies ordered). Non-commutative
//     mutations (add/remove/queue/restore/policy/config/external-weight)
//     force the affected buffers — or all of them — to reconcile before
//     they apply.
//
//   - Reads are stale by a known amount. The published snapshot carries
//     PhaseLag, the count of acknowledged-but-unreconciled mutations; at
//     every phase boundary the reconciled state is exactly the state the
//     ordered path would have produced, because summed progress rows and
//     last-writer weights are order-independent.
type phaseState struct {
	enabled bool
	cfg     scheduler.PhaseConfig
	hs      *scheduler.HotSet

	bufs     map[string]*compBuffer
	buffered int  // total buffered mutations (published as PhaseLag)
	batches  int  // commits since the last boundary while deltas were outstanding
	flushNow bool // interval timer fired: reconcile at the next commit regardless of quota

	timer      *time.Timer
	timerC     <-chan time.Time
	timerArmed bool
}

// compBuffer accumulates the commutative mutations buffered against one
// hot component between phase boundaries.
type compBuffer struct {
	progress map[string][]float64 // job -> summed done rows
	weights  map[string]float64   // job -> last-submitted weight
	// remaining projects each buffered job's outstanding work after the
	// buffered progress — sequentially, exactly as the ordered path would
	// subtract it — so the exhaustion guard in absorbProgress sees the
	// same numbers ordered application would.
	remaining map[string][]float64
	ops       int
}

func (p *phaseState) buf(key string) *compBuffer {
	if p.bufs == nil {
		p.bufs = map[string]*compBuffer{}
	}
	b := p.bufs[key]
	if b == nil {
		b = &compBuffer{
			progress:  map[string][]float64{},
			weights:   map[string]float64{},
			remaining: map[string][]float64{},
		}
		p.bufs[key] = b
	}
	return b
}

// jobHot reports the hot component owning the job, if any.
func (p *phaseState) jobHot(id string) (string, bool) {
	if p.hs == nil {
		return "", false
	}
	key, ok := p.hs.Jobs[id]
	return key, ok
}

// phaseRefresh runs at the top of every commit: it re-reads the phase
// knobs and the classifier's hot set (both can change at runtime — via
// /v1/config, a policy switch, or a restore — always through exclusive
// commits, which flush first), and reconciles any buffer whose component
// has been demoted from the hot set.
func (e *Engine) phaseRefresh() {
	p := &e.phase
	cfg := e.sc.PhaseConfig()
	if !cfg.Enabled() || !e.sc.PolicyCapabilities().Commutative {
		if p.buffered > 0 {
			e.phaseFlush(true)
		}
		p.enabled = false
		p.hs = nil
		return
	}
	p.enabled = true
	p.cfg = cfg
	p.hs = e.sc.HotSet()
	for key := range p.bufs {
		if !p.hs.Has(key) {
			e.applyBuffer(key, true)
		}
	}
}

// phaseAbsorb classifies one op against the hot set. It returns true
// when the op was buffered — acknowledged, WAL-logged, but not applied —
// and false when the op must take the ordered path, possibly after
// forcing the buffers it conflicts with to reconcile.
func (e *Engine) phaseAbsorb(o *op) bool {
	p := &e.phase
	if !p.enabled && p.buffered == 0 {
		return false
	}
	if o.rec == nil {
		// Unlogged mutation (snapshot barriers): not classifiable, so
		// quiesce everything and let it apply ordered.
		if p.buffered > 0 {
			e.phaseFlush(true)
		}
		return false
	}
	switch o.rec.Op {
	case wal.OpProgress:
		return p.enabled && e.absorbProgress(o)
	case wal.OpWeight:
		return p.enabled && e.absorbWeight(o)
	case wal.OpRemoveJob:
		// Removal changes the component's membership: fold the buffered
		// deltas in first so none of them land on a vanished job.
		if key, hot := p.jobHot(o.rec.ID); hot {
			e.applyBuffer(key, true)
		}
	case wal.OpAddJob:
		e.flushSites(o.rec.Demand)
	case wal.OpAddJobs:
		for _, js := range o.rec.Jobs {
			e.flushSites(js.Demand)
		}
	case wal.OpAddQueue, wal.OpExternalWeight, wal.OpSetConfig, wal.OpRestore:
		// Global topology/regime changes: reconcile everything first.
		if p.buffered > 0 {
			e.phaseFlush(true)
		}
	}
	return false
}

// flushSites force-reconciles every hot component whose site set overlaps
// the demand vector: a job arriving there merges components — a
// non-commutative topology change.
func (e *Engine) flushSites(demand []float64) {
	p := &e.phase
	if p.hs == nil || p.buffered == 0 {
		return
	}
	for s, d := range demand {
		if d <= 0 {
			continue
		}
		if key, ok := p.hs.Sites[s]; ok {
			e.applyBuffer(key, true)
		}
	}
}

func (e *Engine) absorbProgress(o *op) bool {
	p := &e.phase
	id := o.rec.ID
	key, hot := p.jobHot(id)
	if !hot || !e.sc.JobLive(id) {
		return false
	}
	done := o.rec.Done
	if scheduler.ValidateProgress(done, e.sc.NumSites()) != nil {
		return false // the ordered path produces the caller's error
	}
	buf := p.buf(key)
	rem, ok := buf.remaining[id]
	if !ok {
		if rem, ok = e.sc.RemainingCopy(id); !ok {
			return false
		}
	}
	// Exhaustion guard: buffering must never defer a site running out of
	// work — the caller's completed ack and the component topology both
	// depend on it. Progress that brings any live site within a relative
	// margin of zero reconciles the component and applies ordered. The
	// margin (1e-9, three orders above the scheduler's 1e-12 exhaustion
	// tolerance) absorbs the summation-order float residue between the
	// projected sequential subtraction here and the single merged
	// subtraction at the boundary.
	for s, d := range done {
		if d == 0 || rem[s] <= 0 {
			continue
		}
		if rem[s]-d <= 1e-9*math.Max(1, rem[s]) {
			e.applyBuffer(key, true)
			return false
		}
	}
	row := buf.progress[id]
	if row == nil {
		row = make([]float64, len(done))
		buf.progress[id] = row
		buf.remaining[id] = rem
	}
	for s, d := range done {
		row[s] += d
		if rem[s] > 0 {
			rem[s] -= d
		}
	}
	buf.ops++
	p.buffered++
	e.mPhaseBuffered.Inc()
	return true
}

func (e *Engine) absorbWeight(o *op) bool {
	p := &e.phase
	id := o.rec.ID
	key, hot := p.jobHot(id)
	if !hot || !e.sc.JobLive(id) {
		return false
	}
	w := o.rec.Weight
	if math.IsNaN(w) || math.IsInf(w, 0) {
		return false // preserve the ordered path's handling of degenerate weights
	}
	buf := p.buf(key)
	buf.weights[id] = w // last write wins, as in the ordered path
	buf.ops++
	p.buffered++
	e.mPhaseBuffered.Inc()
	return true
}

// applyBuffer reconciles one component's buffer into a single merged
// mutation. It reports whether a buffer existed.
func (e *Engine) applyBuffer(key string, forced bool) bool {
	p := &e.phase
	buf := p.bufs[key]
	if buf == nil {
		return false
	}
	delete(p.bufs, key)
	p.buffered -= buf.ops
	t0 := time.Now()
	_, err := e.sc.ApplyMerged(scheduler.MergedDelta{Progress: buf.progress, Weights: buf.weights})
	d := time.Since(t0)
	e.stageObserve(stageReconcile, d)
	if tb := e.tb; tb != nil {
		tb.Detail(stageReconcile, d)
	}
	e.mPhaseReconciles.Inc()
	if forced {
		e.mPhaseForced.Inc()
	}
	if err != nil {
		// Unreachable short of a bug: every row was validated at buffer
		// time. Surface it loudly rather than lose acknowledged mutations.
		e.mSolveErrs.Inc()
		if e.cfg.Logger != nil {
			e.cfg.Logger.Error("phase reconcile failed",
				slog.String("component", key), slog.String("err", err.Error()))
		}
	}
	return true
}

// phaseFlush reconciles every outstanding buffer (in deterministic key
// order) and reports whether anything was applied.
func (e *Engine) phaseFlush(forced bool) bool {
	p := &e.phase
	if len(p.bufs) == 0 {
		p.batches = 0
		return false
	}
	keys := make([]string, 0, len(p.bufs))
	for k := range p.bufs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.applyBuffer(k, forced)
	}
	p.batches = 0
	return true
}

// phaseEndBatch runs after a commit's ops are durable and before its
// publish: it advances the phase clock and reconciles at the boundary,
// so the boundary solve lands in the same publish.
func (e *Engine) phaseEndBatch() {
	p := &e.phase
	if p.buffered > 0 {
		p.batches++
		if p.flushNow || p.batches >= p.cfg.EffectiveMaxBatches() {
			e.phaseFlush(false)
		}
	} else {
		p.batches = 0
	}
	p.flushNow = false
	e.phaseLagA.Store(int64(p.buffered))
	e.armPhaseTimer()
}

// armPhaseTimer keeps the interval boundary armed exactly while deltas
// are outstanding. The timer measures the age of the oldest
// unreconciled delta: it is armed when the first delta is buffered and
// not re-armed until a boundary drains the buffers.
func (e *Engine) armPhaseTimer() {
	p := &e.phase
	if p.buffered > 0 {
		if p.timerArmed {
			return
		}
		d := p.cfg.EffectiveMaxInterval()
		if p.timer == nil {
			p.timer = time.NewTimer(d)
			p.timerC = p.timer.C
		} else {
			if !p.timer.Stop() {
				select {
				case <-p.timer.C:
				default:
				}
			}
			p.timer.Reset(d)
		}
		p.timerArmed = true
		return
	}
	if p.timerArmed {
		if !p.timer.Stop() {
			select {
			case <-p.timer.C:
			default:
			}
		}
		p.timerArmed = false
	}
}

// phaseTick handles the interval timer firing between commits: an empty
// commit whose only effect is the boundary reconcile and the publish of
// the now-exact snapshot.
func (e *Engine) phaseTick() {
	p := &e.phase
	p.timerArmed = false
	if p.buffered == 0 || e.walFailed.Load() {
		return
	}
	p.flushNow = true
	e.commit(nil)
	e.maybeCompact()
}

// cacheWindow tracks per-commit deltas of the solver's lifetime
// fingerprint-cache counters over the last cacheWindowCommits commits,
// feeding engine.cache_hit_ratio_window. The lifetime ratio
// (engine.cache_hit_ratio) is kept for continuity but converges so
// slowly on long-lived engines that a behavior change — a policy
// switch, a workload shift, phase reconciliation kicking in — barely
// moves it; the windowed companion reacts within a window.
type cacheWindow struct {
	hits, misses [cacheWindowCommits]int64
	pos, size    int
	prevH, prevM int64
	sumH, sumM   int64
}

const cacheWindowCommits = 64

func (e *Engine) observeCacheWindow(hits, misses int64) {
	w := &e.hitWin
	dh, dm := hits-w.prevH, misses-w.prevM
	w.prevH, w.prevM = hits, misses
	if dh < 0 || dm < 0 {
		// The lifetime counters reset (solver reinstalled on a policy
		// switch): restart the window instead of folding a negative delta.
		*w = cacheWindow{prevH: hits, prevM: misses}
		e.gHitRatioWin.Set(0)
		return
	}
	if w.size == cacheWindowCommits {
		w.sumH -= w.hits[w.pos]
		w.sumM -= w.misses[w.pos]
	} else {
		w.size++
	}
	w.hits[w.pos], w.misses[w.pos] = dh, dm
	w.sumH += dh
	w.sumM += dm
	w.pos = (w.pos + 1) % cacheWindowCommits
	if lookups := w.sumH + w.sumM; lookups > 0 {
		e.gHitRatioWin.Set(float64(w.sumH) / float64(lookups))
	}
}
