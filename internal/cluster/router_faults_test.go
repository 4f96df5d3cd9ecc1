package cluster_test

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

// blockingShard parks UpdateWeight until release is closed, closing
// entered once the call — and with it the router's mutation lock — is
// held.
type blockingShard struct {
	cluster.Shard
	entered, release chan struct{}
}

func (s blockingShard) UpdateWeight(ctx context.Context, id string, weight float64) error {
	close(s.entered)
	<-s.release
	return s.Shard.UpdateWeight(ctx, id, weight)
}

// TestRouterReadsDoNotWaitOnWrites parks a write inside its shard commit
// and checks the router's point reads, merged allocation, explanation and
// policy still answer while it is in flight.
func TestRouterReadsDoNotWaitOnWrites(t *testing.T) {
	const sites = 8
	caps := make([]float64, sites)
	for i := range caps {
		caps[i] = 10
	}
	shards, _ := newEngineShards(t, 2, caps, policy.EnhancedAMF)
	blocked := blockingShard{shards[0], make(chan struct{}), make(chan struct{})}
	shards[0] = blocked
	r, err := cluster.NewRouter(shards, policy.EnhancedAMF)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s0, s1 := splitSites(t, sites)
	if err := r.AddJob(ctx, "a", 1, demandAt(sites, s0), nil); err != nil {
		t.Fatal(err)
	}
	if err := r.AddJob(ctx, "b", 1, demandAt(sites, s1), nil); err != nil {
		t.Fatal(err)
	}

	write := make(chan error, 1)
	go func() { write <- r.UpdateWeight(ctx, "a", 3) }()
	<-blocked.entered

	reads := make(chan error, 1)
	go func() {
		for _, id := range []string{"a", "b"} {
			if _, err := r.Shares(ctx, id); err != nil {
				reads <- err
				return
			}
		}
		if _, err := r.Explain(ctx, "b"); err != nil {
			reads <- err
			return
		}
		if alloc, err := r.Allocation(ctx); err != nil || len(alloc) != 2 {
			reads <- errors.Join(err, errors.New("merged allocation incomplete"))
			return
		}
		if got := r.PolicyName(); got != "amf-enhanced" {
			reads <- errors.New("policy read " + got)
			return
		}
		reads <- nil
	}()
	select {
	case err := <-reads:
		close(blocked.release)
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		close(blocked.release)
		t.Fatal("router reads waited on the write in flight")
	}
	if err := <-write; err != nil {
		t.Fatal(err)
	}
}

// flakyShard fails the next external-weight send once failNext is set.
type flakyShard struct {
	cluster.Shard
	failNext atomic.Bool
}

func (s *flakyShard) SetExternalWeight(ctx context.Context, w float64) error {
	if s.failNext.CompareAndSwap(true, false) {
		return errors.New("injected broadcast failure")
	}
	return s.Shard.SetExternalWeight(ctx, w)
}

// TestRouterBroadcastRepair: a failed weight broadcast leaves the target
// shard's Enhanced-AMF floors stale. The router marks it (the
// cluster.stale_shards gauge) and the next write that lands on that shard
// alone — whether or not it moves W — re-sends the weight, after which the
// cluster allocation equals the monolithic reference again.
func TestRouterBroadcastRepair(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(tgt workload.ChurnTarget, id string, demand []float64) error
	}{
		{"progress-fast-path", func(tgt workload.ChurnTarget, id string, demand []float64) error {
			done := make([]float64, len(demand))
			for s, d := range demand {
				done[s] = 1e-3 * d
			}
			_, err := tgt.ReportProgress(id, done)
			return err
		}},
		{"reweight", func(tgt workload.ChurnTarget, id string, _ []float64) error {
			return tgt.UpdateWeight(id, 4.25)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pol := policy.EnhancedAMF
			churn := workload.GenerateChurn(workload.ChurnConfig{
				Sparse: workload.SparseConfig{
					Components:        8,
					JobsPerComponent:  3,
					SitesPerComponent: 3,
					Seed:              31,
				},
				Mutations: 30,
				Seed:      32,
			})
			caps := churn.Inst.SiteCapacity
			oracle, err := scheduler.New(scheduler.Config{SiteCapacity: caps, Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			engines, scs := newEngineShards(t, 2, caps, pol)
			flaky := &flakyShard{Shard: engines[1]}
			r, err := cluster.NewRouter([]cluster.Shard{engines[0], flaky}, pol)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			r.SetMetrics(reg)
			ctx := context.Background()
			tgt := routerTarget{r}
			if err := churn.Populate(oracle); err != nil {
				t.Fatal(err)
			}
			if err := churn.Populate(tgt); err != nil {
				t.Fatal(err)
			}
			for i, op := range churn.Ops {
				if err := op.Apply(oracle); err != nil {
					t.Fatalf("oracle op %d: %v", i, err)
				}
				if err := op.Apply(tgt); err != nil {
					t.Fatalf("router op %d: %v", i, err)
				}
			}

			// A base job on each shard.
			on := [2]int{-1, -1}
			for j, id := range churn.Inst.JobName {
				for k, sh := range engines {
					if _, err := sh.Shares(ctx, id); err == nil && on[k] < 0 {
						on[k] = j
					}
				}
			}
			if on[0] < 0 || on[1] < 0 {
				t.Fatalf("seed places no job on one shard: %v", on)
			}
			id0, id1 := churn.Inst.JobName[on[0]], churn.Inst.JobName[on[1]]
			stale := func() float64 { return reg.Snapshot().Gauges["cluster.stale_shards"] }

			// A reweight on shard 0 moves W; its broadcast to shard 1 fails.
			flaky.failNext.Store(true)
			if err := r.UpdateWeight(ctx, id0, 3); err == nil {
				t.Fatal("broadcast failure not reported")
			}
			if err := oracle.UpdateWeight(id0, 3); err != nil {
				t.Fatal(err)
			}
			if got := stale(); got != 1 {
				t.Fatalf("cluster.stale_shards = %g after the failed send, want 1", got)
			}

			// One more write, on the stale shard only.
			if err := tc.write(tgt, id1, churn.Inst.Demand[on[1]]); err != nil {
				t.Fatal(err)
			}
			if err := tc.write(oracle, id1, churn.Inst.Demand[on[1]]); err != nil {
				t.Fatal(err)
			}
			if got := stale(); got != 0 {
				t.Fatalf("cluster.stale_shards = %g after the repair, want 0", got)
			}
			want := r.RouterStats().WeightSum - scs[1].WeightSum()
			if got := scs[1].ExternalWeight(); math.Abs(got-want) > 1e-9 {
				t.Fatalf("shard 1 external weight %g, want W − W_1 = %g", got, want)
			}
			ref, err := oracle.Allocation()
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.Allocation(ctx)
			if err != nil {
				t.Fatal(err)
			}
			diffAllocs(t, "repaired cluster vs oracle", got, ref, 1e-9*churn.Inst.Scale())
		})
	}
}
