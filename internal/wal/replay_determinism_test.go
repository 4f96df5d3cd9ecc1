package wal_test

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/workload"
)

// engineChurnTarget adapts serve.Engine to workload.ChurnTarget.
type engineChurnTarget struct{ e *serve.Engine }

func (t engineChurnTarget) AddJob(id string, w float64, d, wk []float64) error {
	return t.e.AddJob(context.Background(), id, w, d, wk)
}
func (t engineChurnTarget) RemoveJob(id string) error {
	return t.e.RemoveJob(context.Background(), id)
}
func (t engineChurnTarget) UpdateWeight(id string, w float64) error {
	return t.e.UpdateWeight(context.Background(), id, w)
}
func (t engineChurnTarget) ReportProgress(id string, done []float64) (bool, error) {
	return t.e.ReportProgress(context.Background(), id, done)
}

// TestReplayDeterminism is the correctness foundation of the replica path:
// replaying one WAL segment stream into two fresh schedulers must yield
// snapshots equal to 1e-9·Scale — whatever order group commit batched the
// mutations in, the log pins one deterministic replay.
func TestReplayDeterminism(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		for _, pol := range []policy.Policy{policy.AMF, policy.EnhancedAMF} {
			trial, pol := trial, pol
			t.Run(fmt.Sprintf("%s/trial%d", pol.Name(), trial), func(t *testing.T) {
				t.Parallel()
				churn := workload.GenerateChurn(workload.ChurnConfig{
					Sparse: workload.SparseConfig{
						Components:        6,
						JobsPerComponent:  4,
						SitesPerComponent: 3,
					},
					Mutations: 60,
					Seed:      uint64(1000*trial + 7),
				})
				caps := churn.Inst.SiteCapacity

				dir := filepath.Join(t.TempDir(), "wal")
				log, rec, err := wal.Open(dir, wal.Options{SegmentBytes: 4096})
				if err != nil {
					t.Fatal(err)
				}
				if len(rec.Records) != 0 || rec.State != nil {
					t.Fatal("fresh dir recovered state")
				}
				sc, err := scheduler.New(scheduler.Config{SiteCapacity: caps, Policy: pol})
				if err != nil {
					t.Fatal(err)
				}
				eng, err := serve.New(sc, serve.Config{Log: log, MaxBatch: 8})
				if err != nil {
					t.Fatal(err)
				}
				target := engineChurnTarget{eng}
				if err := churn.Populate(target); err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				for i, op := range churn.Ops {
					if err := op.Apply(target); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
					// Interleave weight-sum broadcasts so OpExternalWeight
					// replay is part of the property.
					if i%17 == 5 {
						if err := eng.SetExternalWeight(ctx, float64(i%5)); err != nil {
							t.Fatal(err)
						}
					}
				}
				want := eng.Current()
				// Crash (odd trials) leaves the record tail; Close (even)
				// folds everything into a final snapshot. Replay must be
				// deterministic either way.
				if trial%2 == 1 {
					eng.Crash()
				} else {
					if err := eng.Close(); err != nil {
						t.Fatal(err)
					}
				}

				_, rec2, err := wal.Open(dir, wal.Options{})
				if err != nil {
					t.Fatal(err)
				}
				replayed := make([]*scheduler.Scheduler, 2)
				for k := range replayed {
					fresh, err := scheduler.New(scheduler.Config{SiteCapacity: caps, Policy: pol})
					if err != nil {
						t.Fatal(err)
					}
					st, err := rec2.Replay(fresh)
					if err != nil {
						t.Fatal(err)
					}
					if st.Failed != 0 {
						t.Fatalf("replay %d: %d mutations failed", k, st.Failed)
					}
					replayed[k] = fresh
				}

				tol := 1e-9 * churn.Inst.Scale()
				a0, err := replayed[0].Allocation()
				if err != nil {
					t.Fatal(err)
				}
				a1, err := replayed[1].Allocation()
				if err != nil {
					t.Fatal(err)
				}
				diffAllocs(t, "replay0 vs replay1", a0, a1, tol)
				diffAllocs(t, "replay vs engine", a0, want.Shares, tol)
				if w0, w1 := replayed[0].ExternalWeight(), replayed[1].ExternalWeight(); w0 != w1 {
					t.Fatalf("external weight diverged: %g vs %g", w0, w1)
				}
			})
		}
	}
}

func diffAllocs(t *testing.T, what string, a, b map[string][]float64, tol float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d jobs", what, len(a), len(b))
	}
	for id, ra := range a {
		rb, ok := b[id]
		if !ok {
			t.Fatalf("%s: job %q missing on one side", what, id)
		}
		for s := range ra {
			if math.Abs(ra[s]-rb[s]) > tol {
				t.Fatalf("%s: job %q site %d: %g vs %g (tol %g)",
					what, id, s, ra[s], rb[s], tol)
			}
		}
	}
}
