package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scheduler"
	"repro/internal/wal"
)

func newScheduler(t *testing.T) *scheduler.Scheduler {
	t.Helper()
	sc, err := scheduler.New(scheduler.Config{SiteCapacity: []float64{4, 4, 8}})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// recoverDir replays a WAL directory into a fresh scheduler, as a restart
// of amf-server -data-dir would.
func recoverDir(t *testing.T, dir string) (*scheduler.Scheduler, *wal.Recovery, wal.ReplayStats) {
	t.Helper()
	l, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	sc := newScheduler(t)
	st, err := rec.Replay(sc)
	if err != nil {
		t.Fatal(err)
	}
	return sc, rec, st
}

// assertSameAllocation solves both controllers and requires identical
// per-job aggregate allocations to 1e-9 of the instance scale.
func assertSameAllocation(t *testing.T, tag string, got, want *scheduler.Scheduler) {
	t.Helper()
	gotIn, gotSh, err := got.Resolve()
	if err != nil {
		t.Fatalf("%s: resolving recovered state: %v", tag, err)
	}
	wantIn, wantSh, err := want.Resolve()
	if err != nil {
		t.Fatalf("%s: resolving reference state: %v", tag, err)
	}
	if len(gotSh) != len(wantSh) {
		t.Fatalf("%s: %d jobs recovered, want %d", tag, len(gotSh), len(wantSh))
	}
	tol := 1e-9 * wantIn.Scale()
	if tol == 0 {
		tol = 1e-12
	}
	for id, wantRow := range wantSh {
		gotRow, ok := gotSh[id]
		if !ok {
			t.Fatalf("%s: job %q missing after recovery", tag, id)
		}
		var gotAgg, wantAgg float64
		for s := range wantRow {
			gotAgg += gotRow[s]
			wantAgg += wantRow[s]
		}
		if math.Abs(gotAgg-wantAgg) > tol {
			t.Fatalf("%s: job %q aggregate %g after recovery, want %g (tol %g)",
				tag, id, gotAgg, wantAgg, tol)
		}
	}
	alloc := &core.Allocation{Inst: gotIn, Share: make([][]float64, len(gotIn.JobName))}
	for i, id := range gotIn.JobName {
		alloc.Share[i] = gotSh[id]
	}
	if err := alloc.CheckFeasible(1e-6 * gotIn.Scale()); err != nil {
		t.Fatalf("%s: recovered allocation infeasible: %v", tag, err)
	}
}

func newDurableEngine(t *testing.T, dir string, cfg Config) *Engine {
	t.Helper()
	l, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc := newScheduler(t)
	if _, err := rec.Replay(sc); err != nil {
		t.Fatal(err)
	}
	cfg.Log = l
	eng, err := New(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	return eng
}

// TestEngineDurableCrashReplay is the core durability contract: hard-crash
// the engine (no seal, no final snapshot) and a restart from the data
// directory reproduces the exact pre-crash allocation.
func TestEngineDurableCrashReplay(t *testing.T) {
	dir := t.TempDir()
	eng := newDurableEngine(t, dir, Config{})
	ctx := context.Background()

	if err := eng.AddJob(ctx, "a", 1, []float64{4, 0, 0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddJob(ctx, "p", 1, []float64{0, 4, 0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddJobs(ctx, []scheduler.JobSpec{
		{ID: "b1", Demand: []float64{0, 0, 4}},
		{ID: "b2", Demand: []float64{1, 1, 1}, Weight: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.UpdateWeight(ctx, "a", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ReportProgress(ctx, "b1", []float64{0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := eng.RemoveJob(ctx, "b2"); err != nil {
		t.Fatal(err)
	}
	preCrash := eng.Snapshot()

	eng.Crash()
	if err := eng.AddJob(ctx, "late", 1, []float64{1, 0, 0}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("mutation after crash = %v, want ErrClosed", err)
	}

	mirror := newScheduler(t)
	if err := mirror.Restore(preCrash); err != nil {
		t.Fatal(err)
	}
	recovered, rec, st := recoverDir(t, dir)
	if rec.SkippedRecords != 0 || st.Failed != 0 {
		t.Fatalf("clean crash recovery skipped records: rec=%+v replay=%+v", rec, st)
	}
	if !st.Restored && st.Mutations == 0 {
		t.Fatalf("nothing recovered: %+v", st)
	}
	assertSameAllocation(t, "crash-replay", recovered, mirror)
}

// TestEngineGracefulCloseFoldsSnapshot: Close drains, compacts and seals,
// so a restart recovers everything from the snapshot with an empty tail.
func TestEngineGracefulCloseFoldsSnapshot(t *testing.T) {
	dir := t.TempDir()
	eng := newDurableEngine(t, dir, Config{})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := eng.AddJob(ctx, fmt.Sprintf("j%d", i), 1, []float64{1, 1, 0}, nil); err != nil {
			t.Fatal(err)
		}
	}
	preClose := eng.Snapshot()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	mirror := newScheduler(t)
	if err := mirror.Restore(preClose); err != nil {
		t.Fatal(err)
	}
	recovered, rec, st := recoverDir(t, dir)
	if !st.Restored {
		t.Fatalf("graceful close left no snapshot: %+v", st)
	}
	if st.Batches != 0 || len(rec.Records) != 0 {
		t.Fatalf("graceful close left a record tail: rec=%d replay=%+v", len(rec.Records), st)
	}
	assertSameAllocation(t, "graceful-close", recovered, mirror)
}

// TestEngineReplayAfterCrashProperty is the acceptance property test:
// crash at EVERY batch boundary — both a plain crash after the k-th
// commit and a torn WAL write ON the k-th commit — and require the
// recovered allocation to equal the acknowledged pre-crash allocation to
// 1e-9 of the instance scale, with torn tails skipped, not fatal.
func TestEngineReplayAfterCrashProperty(t *testing.T) {
	// One mutation per batch (MaxBatch 1), so every mutation is a batch
	// boundary. The stream mixes every loggable op kind.
	type step func(ctx context.Context, e *Engine) error
	steps := []step{
		func(ctx context.Context, e *Engine) error {
			return e.AddJob(ctx, "a", 1, []float64{4, 0, 0}, []float64{16, 0, 0})
		},
		func(ctx context.Context, e *Engine) error {
			return e.AddJob(ctx, "b", 1, []float64{0, 4, 0}, nil)
		},
		func(ctx context.Context, e *Engine) error {
			return e.AddJobs(ctx, []scheduler.JobSpec{
				{ID: "c1", Demand: []float64{0, 0, 4}},
				{ID: "c2", Demand: []float64{2, 2, 2}},
			})
		},
		func(ctx context.Context, e *Engine) error {
			return e.UpdateWeight(ctx, "a", 5)
		},
		func(ctx context.Context, e *Engine) error {
			_, err := e.ReportProgress(ctx, "a", []float64{2, 0, 0})
			return err
		},
		func(ctx context.Context, e *Engine) error {
			return e.RemoveJob(ctx, "c2")
		},
		func(ctx context.Context, e *Engine) error {
			return e.AddJob(ctx, "d", 2, []float64{1, 1, 1}, nil)
		},
	}

	for fault := 0; fault <= len(steps); fault++ {
		for _, torn := range []bool{false, true} {
			if fault == len(steps) && torn {
				continue // no commit to tear after the last step
			}
			tag := fmt.Sprintf("fault=%d torn=%v", fault, torn)
			dir := t.TempDir()
			writes := 0
			opts := wal.Options{}
			if torn {
				// The fault-th record append tears: half the frame lands,
				// then the device dies. Everything after is fail-stopped.
				opts.Write = func(f *os.File, p []byte) (int, error) {
					writes++
					if writes == fault+1 {
						n, _ := f.Write(p[:len(p)/2])
						return n, errors.New("injected torn write")
					}
					return f.Write(p)
				}
			}
			l, rec, err := wal.Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			sc := newScheduler(t)
			if _, err := rec.Replay(sc); err != nil {
				t.Fatal(err)
			}
			eng, err := New(sc, Config{MaxBatch: 1, Log: l})
			if err != nil {
				t.Fatal(err)
			}

			// The mirror applies exactly the acknowledged mutations.
			mirror := newScheduler(t)
			mirrorEng, err := New(mirror, Config{MaxBatch: 1})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			stop := len(steps)
			if !torn {
				stop = fault
			}
			for i, stepFn := range steps[:stop] {
				err := stepFn(ctx, eng)
				if torn && i >= fault {
					// The faulted commit and everything after fail-stop.
					if !errors.Is(err, ErrWALFailed) {
						t.Fatalf("%s: step %d err = %v, want ErrWALFailed", tag, i, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: step %d: %v", tag, i, err)
				}
				if merr := stepFn(ctx, mirrorEng); merr != nil {
					t.Fatalf("%s: mirror step %d: %v", tag, i, merr)
				}
			}

			eng.Crash()
			recovered, recov, replay := recoverDir(t, dir)
			if torn && fault < stop && recov.SkippedRecords != 1 {
				t.Fatalf("%s: SkippedRecords = %d, want the torn record dropped", tag, recov.SkippedRecords)
			}
			if replay.Failed != 0 {
				t.Fatalf("%s: %d replay failures", tag, replay.Failed)
			}
			assertSameAllocation(t, tag, recovered, mirror)
			_ = mirrorEng.Close()
		}
	}
}

// TestEngineWALFailStop: after a group-commit fsync failure nothing is
// acknowledged — the failing batch and all later mutations report
// ErrWALFailed, the published snapshot stays at the last durable state,
// and reads keep working.
func TestEngineWALFailStop(t *testing.T) {
	dir := t.TempDir()
	fail := false
	l, _, err := wal.Open(dir, wal.Options{
		Sync: func(f *os.File) error {
			if fail {
				return errors.New("injected fsync failure")
			}
			return f.Sync()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := newScheduler(t)
	reg := obs.NewRegistry()
	eng, err := New(sc, Config{Log: l, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	ctx := context.Background()

	if err := eng.AddJob(ctx, "ok", 1, []float64{1, 1, 0}, nil); err != nil {
		t.Fatal(err)
	}
	version := eng.Current().Version
	if got := reg.Gauge("engine.wal_failed").Value(); got != 0 {
		t.Fatalf("engine.wal_failed = %g on a healthy log", got)
	}

	fail = true
	if err := eng.AddJob(ctx, "doomed", 1, []float64{0, 1, 1}, nil); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("mutation with failing fsync = %v, want ErrWALFailed", err)
	}
	fail = false
	if err := eng.AddJob(ctx, "after", 1, []float64{1, 0, 1}, nil); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("mutation after WAL failure = %v, want fail-stop ErrWALFailed", err)
	}
	if v := eng.Current().Version; v != version {
		t.Fatalf("snapshot version moved %d -> %d across failed commits", version, v)
	}
	if sh, err := eng.Shares(ctx, "ok"); err != nil || len(sh) != 3 {
		t.Fatalf("read after WAL failure = %v, %v", sh, err)
	}
	if got := reg.Counter("wal.errors_total").Value(); got == 0 {
		t.Fatal("wal.errors_total not incremented")
	}
	if got := reg.Gauge("engine.wal_failed").Value(); got != 1 {
		t.Fatalf("engine.wal_failed = %g after the fail-stop, want 1", got)
	}

	// Recovery is bounded by the failed batch: the acknowledged mutation is
	// always present, everything fail-stopped after the failure never was.
	// (The unacknowledged "doomed" record may survive — its bytes were
	// written before the fsync failed — which is the usual WAL contract:
	// recovered state is a superset of acknowledged state up to the failed
	// batch, never beyond it.)
	eng.Crash()
	recovered, _, _ := recoverDir(t, dir)
	if _, err := recovered.Shares("ok"); err != nil {
		t.Fatalf("acknowledged job lost in recovery: %v", err)
	}
	if _, err := recovered.Shares("after"); !errors.Is(err, scheduler.ErrUnknownJob) {
		t.Fatalf("fail-stopped job leaked into recovery: %v", err)
	}
}

// TestEngineWALCompaction: a size-triggered compaction folds the log
// mid-stream and recovery still reproduces the full state.
func TestEngineWALCompaction(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	// A few hundred bytes: every couple of commits triggers a fold.
	eng := newDurableEngine(t, dir, Config{CompactBytes: 256, Metrics: reg})
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if err := eng.AddJob(ctx, fmt.Sprintf("j%d", i), 1+float64(i%3), []float64{1, 1, 1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("wal.compactions_total").Value(); got == 0 {
		t.Fatal("no compaction despite tiny CompactBytes")
	}
	preCrash := eng.Snapshot()
	eng.Crash()

	mirror := newScheduler(t)
	if err := mirror.Restore(preCrash); err != nil {
		t.Fatal(err)
	}
	recovered, _, st := recoverDir(t, dir)
	if !st.Restored {
		t.Fatalf("recovery found no snapshot after compactions: %+v", st)
	}
	assertSameAllocation(t, "compaction", recovered, mirror)
}

// TestEngineIntervalCompaction: the timer path also folds the log.
func TestEngineIntervalCompaction(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	eng := newDurableEngine(t, dir, Config{
		CompactInterval: 10 * time.Millisecond,
		Metrics:         reg,
	})
	ctx := context.Background()
	if err := eng.AddJob(ctx, "a", 1, []float64{1, 1, 1}, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("wal.compactions_total").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval compaction never ran")
		}
		// Keep the committer loop iterating so it notices the tick.
		if err := eng.UpdateWeight(ctx, "a", 1+float64(time.Now().UnixNano()%7)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineRestoreQuiesces is the regression test for the restore path:
// concurrent mutators race against snapshot restores under -race, and
// every restore commits alone (the exclusive counter matches), with the
// engine still consistent afterwards.
func TestEngineRestoreQuiesces(t *testing.T) {
	reg := obs.NewRegistry()
	eng, _ := newEngine(t, Config{MaxBatch: 16, BatchWindow: 100 * time.Microsecond, Metrics: reg})
	ctx := context.Background()

	// A base state to restore into the engine repeatedly.
	base := newScheduler(t)
	if err := base.AddJob("base", 1, []float64{1, 1, 1}, nil); err != nil {
		t.Fatal(err)
	}
	baseSnap := base.Snapshot()

	const writers = 4
	const restores = 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				// Adds race restores, so duplicates (after a restore that
				// re-seeded state) and unknown-job errors are expected;
				// anything else is a bug.
				err := eng.AddJob(ctx, id, 1, []float64{1, 0, 1}, nil)
				if err != nil && !errors.Is(err, scheduler.ErrDuplicateJob) {
					t.Error(err)
					return
				}
				_ = eng.UpdateWeight(ctx, id, 2)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < restores; i++ {
			if err := eng.Restore(ctx, baseSnap); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	if got := reg.Counter("engine.exclusive_commits_total").Value(); got != restores {
		t.Fatalf("exclusive_commits_total = %d, want %d", got, restores)
	}
	// The engine is still consistent: base job present, snapshot readable.
	if _, err := eng.Shares(ctx, "base"); err != nil {
		t.Fatalf("base job lost after concurrent restores: %v", err)
	}
	snap := eng.Current()
	if err := snap.Allocation().CheckFeasible(1e-6 * snap.Inst.Scale()); err != nil {
		t.Fatalf("post-restore allocation infeasible: %v", err)
	}
}

// TestEngineContextCancellation: a queued mutation whose context expires
// before the committer takes it is abandoned — the submitter unblocks with
// the context error, the mutation is never applied, and the cancellation
// counter ticks.
func TestEngineContextCancellation(t *testing.T) {
	reg := obs.NewRegistry()
	// A long window holds the committer in gather once the first mutation
	// arrives, keeping the second one queued long enough to cancel.
	eng, _ := newEngine(t, Config{MaxBatch: 64, BatchWindow: 2 * time.Second, Metrics: reg})
	ctx := context.Background()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := eng.AddJob(ctx, "window-opener", 1, []float64{1, 0, 0}, nil); err != nil {
			t.Error(err)
		}
	}()
	// Wait until the committer is inside the batch window.
	deadline := time.Now().Add(time.Second)
	for eng.Current().Version < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	cctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := eng.AddJob(cctx, "cancelled", 1, []float64{0, 1, 0}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued-then-cancelled mutation err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancellation took %v, should not wait out the batch window", elapsed)
	}
	wg.Wait()

	if _, err := eng.Shares(ctx, "cancelled"); !errors.Is(err, scheduler.ErrUnknownJob) {
		t.Fatalf("cancelled mutation was applied: Shares err = %v", err)
	}
	if _, err := eng.Shares(ctx, "window-opener"); err != nil {
		t.Fatalf("batched mutation lost: %v", err)
	}
	if got := reg.Counter("engine.cancelled_mutations_total").Value(); got == 0 {
		t.Fatal("cancelled_mutations_total not incremented")
	}

	// Pre-cancelled contexts never enqueue at all.
	done, derr := context.WithCancel(ctx)
	derr()
	if err := eng.AddJob(done, "never", 1, []float64{1, 1, 1}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled mutation err = %v, want Canceled", err)
	}
}

// TestEngineBulkAddAtomic: AddJobs is one commit — one solve — and
// all-or-nothing on validation failure.
func TestEngineBulkAddAtomic(t *testing.T) {
	eng, sc := newEngine(t, Config{})
	ctx := context.Background()
	preSolves := sc.Stats().Solves

	if err := eng.AddJobs(ctx, []scheduler.JobSpec{
		{ID: "a", Demand: []float64{1, 0, 0}},
		{ID: "b", Demand: []float64{0, 1, 0}},
		{ID: "c", Demand: []float64{0, 0, 1}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := sc.Stats().Solves - preSolves; got != 1 {
		t.Fatalf("bulk add solved %d times, want 1", got)
	}

	// One bad item rejects the whole batch.
	err := eng.AddJobs(ctx, []scheduler.JobSpec{
		{ID: "d", Demand: []float64{1, 1, 1}},
		{ID: "a", Demand: []float64{1, 0, 0}}, // duplicate
	})
	var be *scheduler.BatchError
	if !errors.As(err, &be) {
		t.Fatalf("bulk add with duplicate err = %v, want *BatchError", err)
	}
	if be.Errs[0] != nil || !errors.Is(be.Errs[1], scheduler.ErrDuplicateJob) {
		t.Fatalf("batch error items = %v", be.Errs)
	}
	if _, err := eng.Shares(ctx, "d"); !errors.Is(err, scheduler.ErrUnknownJob) {
		t.Fatalf("rejected batch leaked job d: %v", err)
	}
}
