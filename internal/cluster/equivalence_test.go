package cluster_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

// routerTarget adapts the Router to workload.ChurnTarget.
type routerTarget struct{ r *cluster.Router }

func (t routerTarget) AddJob(id string, w float64, d, wk []float64) error {
	return t.r.AddJob(context.Background(), id, w, d, wk)
}
func (t routerTarget) RemoveJob(id string) error {
	return t.r.RemoveJob(context.Background(), id)
}
func (t routerTarget) UpdateWeight(id string, w float64) error {
	return t.r.UpdateWeight(context.Background(), id, w)
}
func (t routerTarget) ReportProgress(id string, done []float64) (bool, error) {
	return t.r.ReportProgress(context.Background(), id, done)
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

// TestRouterEquivalence is the sharding correctness property from
// DESIGN.md §14: for any churn stream, a router over N shards produces
// allocations identical (to 1e-9·Scale) to one scheduler solving the
// whole instance — for AMF trivially (components are independent) and
// for Enhanced-AMF because the router's weight broadcasts reproduce the
// global equal-share floors on every shard.
//
// 50 seeds × 2 policies × 2 shard counts = 200 independent streams.
func TestRouterEquivalence(t *testing.T) {
	const trials = 50
	for _, pol := range []policy.Policy{policy.AMF, policy.EnhancedAMF} {
		for _, shardCount := range []int{2, 3} {
			for trial := 0; trial < trials; trial++ {
				pol, shardCount, trial := pol, shardCount, trial
				t.Run(fmt.Sprintf("%s/shards%d/seed%d", pol.Name(), shardCount, trial), func(t *testing.T) {
					t.Parallel()
					runEquivalence(t, pol, shardCount, uint64(9000+trial))
				})
			}
		}
	}
}

func runEquivalence(t *testing.T, pol policy.Policy, shardCount int, seed uint64) {
	churn := workload.GenerateChurn(workload.ChurnConfig{
		Sparse: workload.SparseConfig{
			Components:        8,
			JobsPerComponent:  3,
			SitesPerComponent: 3,
			Seed:              seed,
		},
		Mutations: 30,
		Seed:      seed ^ 0xA5A5,
	})
	caps := churn.Inst.SiteCapacity

	oracle, err := scheduler.New(scheduler.Config{SiteCapacity: caps, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	shards, _ := newEngineShards(t, shardCount, caps, pol)
	router, err := cluster.NewRouter(shards, pol)
	if err != nil {
		t.Fatal(err)
	}
	tgt := routerTarget{router}

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

	want, err := oracle.Allocation()
	if err != nil {
		t.Fatal(err)
	}
	got, err := router.Allocation(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	diffAllocs(t, "router vs oracle", got, want, 1e-9*churn.Inst.Scale())

	if vec := router.VersionVector(); len(vec) != shardCount {
		t.Fatalf("version vector has %d entries, want %d", len(vec), shardCount)
	}
	// Cross-check the ledger: the router's W matches the oracle's live
	// weight sum bit-for-bit relevant to the floors.
	if pol.Capabilities().GlobalWeightFloors {
		if w, o := router.RouterStats().WeightSum, oracle.WeightSum(); math.Abs(w-o) > 1e-9 {
			t.Fatalf("router weight sum %g, oracle %g", w, o)
		}
	}
}
