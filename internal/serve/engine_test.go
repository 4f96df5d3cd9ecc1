package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/scheduler"
)

func newEngine(t *testing.T, cfg Config) (*Engine, *scheduler.Scheduler) {
	t.Helper()
	sc, err := scheduler.New(scheduler.Config{SiteCapacity: []float64{4, 4, 8}})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	return eng, sc
}

func TestEngineBasic(t *testing.T) {
	eng, _ := newEngine(t, Config{})

	if snap := eng.Current(); snap == nil || snap.Version != 1 || len(snap.Shares) != 0 {
		t.Fatalf("initial snapshot = %+v, want empty version 1", snap)
	}
	if err := eng.AddJob(context.Background(), "a", 1, []float64{4, 0, 0}, nil); err != nil {
		t.Fatal(err)
	}
	// Read-your-writes: the snapshot published with a's batch is current.
	snap := eng.Current()
	if snap.Version < 2 {
		t.Fatalf("version = %d, want >= 2 after a commit", snap.Version)
	}
	sh, err := eng.Shares(context.Background(), "a")
	if err != nil || len(sh) != 3 {
		t.Fatalf("Shares(a) = %v, %v", sh, err)
	}
	if sh[0] != 4 {
		t.Fatalf("job a share = %v, want 4 at site 0", sh)
	}
	if err := eng.AddJob(context.Background(), "a", 1, []float64{1, 1, 1}, nil); !errors.Is(err, scheduler.ErrDuplicateJob) {
		t.Fatalf("duplicate add err = %v", err)
	}
	if err := eng.UpdateWeight(context.Background(), "a", 2); err != nil {
		t.Fatal(err)
	}
	done, err := eng.ReportProgress(context.Background(), "a", []float64{4, 0, 0})
	if err != nil || !done {
		t.Fatalf("progress = %v, %v, want completed", done, err)
	}
	if _, err := eng.Shares(context.Background(), "a"); !errors.Is(err, scheduler.ErrUnknownJob) {
		t.Fatalf("Shares after completion err = %v", err)
	}
	if err := eng.RemoveJob(context.Background(), "nope"); !errors.Is(err, scheduler.ErrUnknownJob) {
		t.Fatalf("remove unknown err = %v", err)
	}
}

func TestEngineRestore(t *testing.T) {
	eng, _ := newEngine(t, Config{})
	if err := eng.AddJob(context.Background(), "q1", 1, []float64{2, 2, 0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddJob(context.Background(), "solo", 1, []float64{0, 2, 2}, nil); err != nil {
		t.Fatal(err)
	}
	state := eng.Snapshot()
	if len(state.Jobs) != 2 {
		t.Fatalf("state has %d jobs, want 2", len(state.Jobs))
	}
	if err := eng.Restore(context.Background(), scheduler.Snapshot{}); err != nil {
		t.Fatal(err)
	}
	if got := eng.Current().Shares; len(got) != 0 {
		t.Fatalf("shares after empty restore = %v", got)
	}
	if err := eng.Restore(context.Background(), state); err != nil {
		t.Fatal(err)
	}
	if got := eng.Current().Shares; len(got) != 2 {
		t.Fatalf("shares after restore = %v", got)
	}
}

func TestEngineClose(t *testing.T) {
	eng, _ := newEngine(t, Config{})
	if err := eng.AddJob(context.Background(), "a", 1, []float64{1, 1, 1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := eng.AddJob(context.Background(), "b", 1, []float64{1, 1, 1}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("mutation after close err = %v, want ErrClosed", err)
	}
	// Reads still serve the last snapshot.
	if sh, err := eng.Shares(context.Background(), "a"); err != nil || len(sh) != 3 {
		t.Fatalf("read after close = %v, %v", sh, err)
	}
}

// TestEngineBatchingAmortizesSolves submits mutations from many goroutines
// and checks the committer solved fewer times than it mutated.
func TestEngineBatchingAmortizesSolves(t *testing.T) {
	reg := obs.NewRegistry()
	// The window makes batching robust on single-CPU hosts, where the
	// committer can outrun the submitters' wakeups and would otherwise
	// find an empty queue every time.
	eng, sc := newEngine(t, Config{MaxBatch: 64, BatchWindow: 500 * time.Microsecond, Metrics: reg})
	const workers, iters = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := fmt.Sprintf("j%d-%d", w, i)
				if err := eng.AddJob(context.Background(), id, 1, []float64{1, 1, 0}, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := sc.Stats()
	if st.Jobs != workers*iters {
		t.Fatalf("jobs = %d, want %d", st.Jobs, workers*iters)
	}
	muts := reg.Counter("engine.mutations_total").Value()
	commits := reg.Counter("engine.commits_total").Value()
	if muts != workers*iters {
		t.Fatalf("mutations_total = %d, want %d", muts, workers*iters)
	}
	if commits >= muts {
		t.Fatalf("commits (%d) not amortized over mutations (%d)", commits, muts)
	}
	if st.Solves > int(commits)+1 { // +1 for the initial publish
		t.Fatalf("solves = %d > commits %d", st.Solves, commits)
	}
	if st.LastSolve <= 0 || st.TotalSolveTime < st.LastSolve {
		t.Fatalf("solve durations not recorded: %+v", st)
	}
	if reg.Histogram("engine.solve_latency").Summary().Count == 0 {
		t.Fatal("solve latency histogram empty")
	}
}

func TestEngineUnbatched(t *testing.T) {
	eng, sc := newEngine(t, Config{MaxBatch: 1})
	for i := 0; i < 10; i++ {
		if err := eng.AddJob(context.Background(), fmt.Sprintf("j%d", i), 1, []float64{1, 0, 1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Every mutation dirties the set, so unbatched mode solves per op
	// (plus the initial empty-state publish, which solves nothing).
	if st := sc.Stats(); st.Solves != 10 {
		t.Fatalf("solves = %d, want 10 in unbatched mode", st.Solves)
	}
}

// TestEngineConcurrentReadersWriters is the engine's race-detector
// workout: mixed adders, removers, progress reporters and weight updaters
// run against lock-free readers. Each reader asserts (1) snapshot versions
// are monotonic, and (2) every snapshot is a complete, capacity-feasible
// allocation (via core's feasibility checker).
func TestEngineConcurrentReadersWriters(t *testing.T) {
	eng, _ := newEngine(t, Config{MaxBatch: 32, BatchWindow: 100 * time.Microsecond})

	const (
		writers    = 4
		readers    = 4
		writerIter = 40
	)
	var stop atomic.Bool
	var writerWG, readerWG sync.WaitGroup

	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < writerIter; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				if err := eng.AddJob(context.Background(), id, 1, []float64{2, 1, 1}, []float64{8, 4, 4}); err != nil {
					t.Error(err)
					return
				}
				switch i % 4 {
				case 0:
					if err := eng.UpdateWeight(context.Background(), id, float64(1+i%3)); err != nil {
						t.Error(err)
					}
				case 1:
					if _, err := eng.ReportProgress(context.Background(), id, []float64{1, 0, 0}); err != nil {
						t.Error(err)
					}
				case 2:
					if err := eng.RemoveJob(context.Background(), id); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}

	readErrs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			var lastVersion uint64
			for !stop.Load() {
				snap := eng.Current()
				if snap.Version < lastVersion {
					readErrs <- fmt.Errorf("version went backwards: %d after %d", snap.Version, lastVersion)
					return
				}
				lastVersion = snap.Version
				// Complete: exactly the solved instance's jobs, full rows.
				if len(snap.Shares) != len(snap.Inst.JobName) {
					readErrs <- fmt.Errorf("snapshot v%d has %d share rows for %d jobs",
						snap.Version, len(snap.Shares), len(snap.Inst.JobName))
					return
				}
				for _, id := range snap.Inst.JobName {
					if len(snap.Shares[id]) != snap.Inst.NumSites() {
						readErrs <- fmt.Errorf("snapshot v%d: job %q row incomplete", snap.Version, id)
						return
					}
				}
				// Capacity-feasible: no oversubscription, no share beyond
				// demand.
				if err := snap.Allocation().CheckFeasible(1e-6); err != nil {
					readErrs <- fmt.Errorf("snapshot v%d infeasible: %w", snap.Version, err)
					return
				}
			}
		}()
	}

	writerWG.Wait()
	stop.Store(true)
	readerWG.Wait()
	close(readErrs)
	for err := range readErrs {
		t.Fatal(err)
	}
	if v := eng.Current().Version; v < 2 {
		t.Fatalf("final version = %d, want > 1", v)
	}
}

// TestEngineIncrementalTelemetry checks that the incremental-solve
// telemetry flows through the commit path into both the published
// snapshot and the metrics gauges: a single-component mutation on a
// multi-component job set reuses the untouched components, and so does
// reverting it.
func TestEngineIncrementalTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	sc, err := scheduler.New(scheduler.Config{SiteCapacity: []float64{4, 4, 8}})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(sc, Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })

	// Three jobs on disjoint sites: three components.
	if err := eng.AddJob(context.Background(), "a", 1, []float64{4, 0, 0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddJob(context.Background(), "b", 1, []float64{0, 4, 0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddJob(context.Background(), "c", 1, []float64{0, 0, 8}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.UpdateWeight(context.Background(), "b", 5); err != nil {
		t.Fatal(err)
	}
	snap := eng.Current()
	if snap.ComponentsResolved != 1 || snap.ComponentsReused != 2 {
		t.Fatalf("snapshot after single-component mutation: resolved %d reused %d, want 1/2",
			snap.ComponentsResolved, snap.ComponentsReused)
	}
	m := reg.Snapshot()
	if got := m.Gauges["engine.components_reused"]; got != 2 {
		t.Fatalf("components_reused gauge = %g, want 2", got)
	}
	if got := m.Gauges["engine.components_resolved"]; got != 1 {
		t.Fatalf("components_resolved gauge = %g, want 1", got)
	}

	// Reverting the weight re-solves b's component alone.
	if err := eng.UpdateWeight(context.Background(), "b", 1); err != nil {
		t.Fatal(err)
	}
	snap = eng.Current()
	if snap.ComponentsResolved != 1 || snap.ComponentsReused != 2 {
		t.Fatalf("snapshot after reverted mutation: resolved %d reused %d, want 1/2",
			snap.ComponentsResolved, snap.ComponentsReused)
	}
	st := eng.Stats()
	if st.LastResolved != 1 || st.LastReused != 2 {
		t.Fatalf("stats missing incremental accounting: %+v", st)
	}
}
