package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/workload"
)

// newEngineShards builds n WAL-less engine shards, each over the full
// site-capacity vector, returning the shards plus the underlying
// schedulers (for asserting on external weights).
func newEngineShards(t *testing.T, n int, caps []float64, pol policy.Policy) ([]cluster.Shard, []*scheduler.Scheduler) {
	t.Helper()
	shards := make([]cluster.Shard, n)
	scs := make([]*scheduler.Scheduler, n)
	for i := 0; i < n; i++ {
		sc, err := scheduler.New(scheduler.Config{SiteCapacity: caps, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := serve.New(sc, serve.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = eng.Close() })
		shards[i] = cluster.EngineShard{Eng: eng}
		scs[i] = sc
	}
	return shards, scs
}

// sitesOnShard finds two site indices that hash to different shards of a
// 2-shard cluster, so tests can force placement deterministically.
func splitSites(t *testing.T, n int) (s0, s1 int) {
	t.Helper()
	s0, s1 = -1, -1
	for s := 0; s < 64; s++ {
		key, ok := core.ShardKey([]int{s})
		if !ok {
			t.Fatal("single site has no shard key")
		}
		switch core.ShardOf(key, 2) {
		case 0:
			if s0 == -1 {
				s0 = s
			}
		case 1:
			if s1 == -1 {
				s1 = s
			}
		}
		if s0 >= 0 && s1 >= 0 && s0 < n && s1 < n {
			return s0, s1
		}
	}
	t.Fatal("no shard split found in 64 sites")
	return 0, 0
}

func demandAt(n int, sites ...int) []float64 {
	d := make([]float64, n)
	for _, s := range sites {
		d[s] = 1
	}
	return d
}

func TestRouterCrossShardReject(t *testing.T) {
	const sites = 8
	caps := make([]float64, sites)
	for i := range caps {
		caps[i] = 10
	}
	shards, _ := newEngineShards(t, 2, caps, policy.AMF)
	r, err := cluster.NewRouter(shards, policy.AMF)
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
	// c touches sites owned by both shards: the decomposition cannot
	// express the coupling, so the router must refuse.
	if err := r.AddJob(ctx, "c", 1, demandAt(sites, s0, s1), nil); !errors.Is(err, cluster.ErrCrossShard) {
		t.Fatalf("cross-shard add = %v, want ErrCrossShard", err)
	}
	if st := r.RouterStats(); st.CrossShardRejects != 1 || st.Jobs != 2 {
		t.Fatalf("router stats = %+v", st)
	}
	// d overlaps only shard 0's site: it must follow the owner, even
	// when its own hash would have said otherwise.
	if err := r.AddJob(ctx, "d", 1, demandAt(sites, s0), nil); err != nil {
		t.Fatal(err)
	}
	shares, err := shards[core.ShardOf(mustKey(t, []int{s0}), 2)].Shares(ctx, "d")
	if err != nil || len(shares) != sites {
		t.Fatalf("job d not on owner shard: %v %v", shares, err)
	}
}

func mustKey(t *testing.T, sites []int) uint64 {
	t.Helper()
	key, ok := core.ShardKey(sites)
	if !ok {
		t.Fatal("no key")
	}
	return key
}

func TestRouterRestoreUnsupported(t *testing.T) {
	shards, _ := newEngineShards(t, 2, []float64{1, 1}, policy.AMF)
	r, err := cluster.NewRouter(shards, policy.AMF)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := r.Restore(ctx, scheduler.Snapshot{}); !errors.Is(err, cluster.ErrRestoreUnsupported) {
		t.Fatalf("Restore = %v", err)
	}
}

func TestRouterDuplicateAndUnknown(t *testing.T) {
	shards, _ := newEngineShards(t, 2, []float64{5, 5}, policy.AMF)
	r, _ := cluster.NewRouter(shards, policy.AMF)
	ctx := context.Background()
	if err := r.AddJob(ctx, "a", 1, []float64{1, 0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.AddJob(ctx, "a", 1, []float64{1, 0}, nil); !errors.Is(err, scheduler.ErrDuplicateJob) {
		t.Fatalf("duplicate add = %v", err)
	}
	if err := r.RemoveJob(ctx, "nope"); !errors.Is(err, scheduler.ErrUnknownJob) {
		t.Fatalf("unknown remove = %v", err)
	}
	if err := r.UpdateWeight(ctx, "nope", 2); !errors.Is(err, scheduler.ErrUnknownJob) {
		t.Fatalf("unknown weight = %v", err)
	}
	if _, err := r.Shares(ctx, "nope"); !errors.Is(err, scheduler.ErrUnknownJob) {
		t.Fatalf("unknown shares = %v", err)
	}
}

// TestRouterWeightBroadcast checks the Enhanced-AMF reconciliation
// invariant: after every mutation, each shard's external weight equals
// W_global − W_shard, and the dirty shard never receives a broadcast
// (its external weight is unchanged by its own mutations).
func TestRouterWeightBroadcast(t *testing.T) {
	const sites = 8
	caps := make([]float64, sites)
	for i := range caps {
		caps[i] = 10
	}
	shards, scs := newEngineShards(t, 2, caps, policy.EnhancedAMF)
	r, _ := cluster.NewRouter(shards, policy.EnhancedAMF)
	ctx := context.Background()
	s0, s1 := splitSites(t, sites)

	checkExternal := func(want0, want1 float64) {
		t.Helper()
		if got := scs[0].ExternalWeight(); math.Abs(got-want0) > 1e-12 {
			t.Fatalf("shard 0 external = %g, want %g", got, want0)
		}
		if got := scs[1].ExternalWeight(); math.Abs(got-want1) > 1e-12 {
			t.Fatalf("shard 1 external = %g, want %g", got, want1)
		}
	}

	if err := r.AddJob(ctx, "j0", 2, demandAt(sites, s0), nil); err != nil {
		t.Fatal(err)
	}
	checkExternal(0, 2) // W=2 all on shard 0
	if err := r.AddJob(ctx, "j1", 3, demandAt(sites, s1), nil); err != nil {
		t.Fatal(err)
	}
	checkExternal(3, 2) // W=5
	if err := r.UpdateWeight(ctx, "j0", 5); err != nil {
		t.Fatal(err)
	}
	checkExternal(3, 5) // W=8
	// Weight defaulting: weight<=0 normalizes to 1 on the shard and in
	// the router's ledger alike.
	if err := r.AddJob(ctx, "j2", 0, demandAt(sites, s0), nil); err != nil {
		t.Fatal(err)
	}
	checkExternal(3, 6) // W=9, shard0 holds 6
	if err := r.RemoveJob(ctx, "j1"); err != nil {
		t.Fatal(err)
	}
	checkExternal(0, 6) // W=6 all on shard 0

	st := r.RouterStats()
	if st.WeightSum != 6 {
		t.Fatalf("weight sum = %g, want 6", st.WeightSum)
	}
	if st.Broadcasts == 0 || st.BroadcastVersion == 0 {
		t.Fatalf("no broadcasts recorded: %+v", st)
	}
}

// TestRouterAMFSkipsBroadcasts: AMF has no weight-sum coupling, so the
// fast path must skip every reconcile.
func TestRouterAMFSkipsBroadcasts(t *testing.T) {
	shards, scs := newEngineShards(t, 2, []float64{5, 5, 5, 5}, policy.AMF)
	r, _ := cluster.NewRouter(shards, policy.AMF)
	ctx := context.Background()
	if err := r.AddJob(ctx, "a", 2, []float64{1, 0, 0, 0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.AddJob(ctx, "b", 3, []float64{0, 1, 0, 0}, nil); err != nil {
		t.Fatal(err)
	}
	st := r.RouterStats()
	if st.Broadcasts != 0 || st.FastPathSkips != 2 {
		t.Fatalf("AMF broadcast stats = %+v, want 0 broadcasts / 2 skips", st)
	}
	if scs[0].ExternalWeight() != 0 || scs[1].ExternalWeight() != 0 {
		t.Fatal("AMF shards received external weight")
	}
}

func TestRouterBatchAdd(t *testing.T) {
	const sites = 8
	caps := make([]float64, sites)
	for i := range caps {
		caps[i] = 10
	}
	shards, scs := newEngineShards(t, 2, caps, policy.EnhancedAMF)
	r, _ := cluster.NewRouter(shards, policy.EnhancedAMF)
	ctx := context.Background()
	s0, s1 := splitSites(t, sites)

	// A batch spanning both shards: split into per-shard groups, weight
	// ledger reconciled across the whole batch.
	specs := []scheduler.JobSpec{
		{ID: "a", Weight: 1, Demand: demandAt(sites, s0)},
		{ID: "b", Weight: 2, Demand: demandAt(sites, s1)},
		{ID: "c", Weight: 3, Demand: demandAt(sites, s0)},
	}
	if err := r.AddJobs(ctx, specs); err != nil {
		t.Fatal(err)
	}
	if st := r.RouterStats(); st.Jobs != 3 || st.WeightSum != 6 {
		t.Fatalf("after batch: %+v", st)
	}
	if got := scs[0].ExternalWeight(); got != 2 {
		t.Fatalf("shard 0 external = %g, want 2", got)
	}
	if got := scs[1].ExternalWeight(); got != 4 {
		t.Fatalf("shard 1 external = %g, want 4", got)
	}

	// A batch with one bad spec is rejected whole: the valid specs on the
	// other shard are rolled back.
	bad := []scheduler.JobSpec{
		{ID: "d", Weight: 1, Demand: demandAt(sites, s0)},
		{ID: "a", Weight: 1, Demand: demandAt(sites, s1)}, // duplicate
	}
	if err := r.AddJobs(ctx, bad); !errors.Is(err, scheduler.ErrDuplicateJob) {
		t.Fatalf("bad batch = %v", err)
	}
	if st := r.RouterStats(); st.Jobs != 3 {
		t.Fatalf("batch rollback left %d jobs, want 3", st.Jobs)
	}
	if _, err := r.Shares(ctx, "d"); !errors.Is(err, scheduler.ErrUnknownJob) {
		t.Fatal("rolled-back job still routed")
	}
}

func TestRouterSyncFromShards(t *testing.T) {
	const sites = 8
	caps := make([]float64, sites)
	for i := range caps {
		caps[i] = 10
	}
	shards, scs := newEngineShards(t, 2, caps, policy.EnhancedAMF)
	r1, _ := cluster.NewRouter(shards, policy.EnhancedAMF)
	ctx := context.Background()
	s0, s1 := splitSites(t, sites)
	if err := r1.AddJob(ctx, "a", 2, demandAt(sites, s0), nil); err != nil {
		t.Fatal(err)
	}
	if err := r1.AddJob(ctx, "b", 3, demandAt(sites, s1), nil); err != nil {
		t.Fatal(err)
	}

	// A fresh router (restart) over the same shards rebuilds the ledger.
	r2, _ := cluster.NewRouter(shards, policy.EnhancedAMF)
	if err := r2.SyncFromShards(ctx); err != nil {
		t.Fatal(err)
	}
	st := r2.RouterStats()
	if st.Jobs != 2 || st.WeightSum != 5 || st.OwnedSites != 2 {
		t.Fatalf("synced stats = %+v", st)
	}
	if got := scs[0].ExternalWeight(); got != 3 {
		t.Fatalf("post-sync shard 0 external = %g, want 3", got)
	}
	// Routing state survives: an overlapping job follows the owner, a
	// duplicate is refused.
	if err := r2.AddJob(ctx, "a", 1, demandAt(sites, s0), nil); !errors.Is(err, scheduler.ErrDuplicateJob) {
		t.Fatalf("duplicate after sync = %v", err)
	}
	if err := r2.AddJob(ctx, "c", 1, demandAt(sites, s0, s1), nil); !errors.Is(err, cluster.ErrCrossShard) {
		t.Fatalf("cross-shard after sync = %v", err)
	}

	// Mis-assembled cluster: the same site populated on both shards must
	// fail the sync, not be papered over.
	bad, _ := newEngineShards(t, 2, caps, policy.AMF)
	for i, sh := range bad {
		if err := sh.AddJob(ctx, "dup"+string(rune('0'+i)), 1, demandAt(sites, 0), nil); err != nil {
			t.Fatal(err)
		}
	}
	r3, _ := cluster.NewRouter(bad, policy.AMF)
	if err := r3.SyncFromShards(ctx); err == nil {
		t.Fatal("sync over conflicting shards succeeded")
	}
}

func TestRouterCompletionFreesSites(t *testing.T) {
	shards, _ := newEngineShards(t, 2, []float64{4, 4}, policy.EnhancedAMF)
	r, _ := cluster.NewRouter(shards, policy.EnhancedAMF)
	ctx := context.Background()
	if err := r.AddJob(ctx, "a", 2, []float64{1, 0}, []float64{0.5, 0}); err != nil {
		t.Fatal(err)
	}
	completed, err := r.ReportProgress(ctx, "a", []float64{0.5, 0})
	if err != nil || !completed {
		t.Fatalf("progress = %v %v, want completed", completed, err)
	}
	st := r.RouterStats()
	if st.Jobs != 0 || st.OwnedSites != 0 || st.WeightSum != 0 {
		t.Fatalf("completion left ledger dirty: %+v", st)
	}
	if _, err := r.Shares(ctx, "a"); !errors.Is(err, scheduler.ErrUnknownJob) {
		t.Fatal("completed job still routed")
	}
}

// TestRouterBroadcastKeepsSlackShardsReused runs amf-enhanced over two
// shards. A write that changes the weight sum W on one shard makes the
// router broadcast a new external weight to the other, which moves every
// floor there. The other shard's components are slack — their plain-AMF
// aggregates meet the floors — so its solve after the broadcast re-solves
// none of them. After every acknowledged step the merged allocation
// equals one monolithic scheduler's to 1e-9·Scale.
func TestRouterBroadcastKeepsSlackShardsReused(t *testing.T) {
	const m = 12
	caps := make([]float64, m)
	var bySite [2][]int // the sites whose own shard key lands on shard k
	for s := range caps {
		caps[s] = 4
		key, _ := core.ShardKey([]int{s})
		k := core.ShardOf(key, 2)
		bySite[k] = append(bySite[k], s)
	}
	if len(bySite[0]) < 4 || len(bySite[1]) < 4 {
		t.Fatalf("sites per shard %d/%d, want at least 4 each", len(bySite[0]), len(bySite[1]))
	}
	pol := policy.EnhancedAMF
	shards, scs := newEngineShards(t, 2, caps, pol)
	router, err := cluster.NewRouter(shards, pol)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := scheduler.New(scheduler.Config{SiteCapacity: caps, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	// apply runs one write on the router and the oracle, then compares the
	// allocations.
	apply := func(what string, write func(workload.ChurnTarget) error) {
		t.Helper()
		if err := write(routerTarget{router}); err != nil {
			t.Fatalf("%s: router: %v", what, err)
		}
		if err := write(oracle); err != nil {
			t.Fatalf("%s: oracle: %v", what, err)
		}
		want, err := oracle.Allocation()
		if err != nil {
			t.Fatal(err)
		}
		got, err := router.Allocation(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		diffAllocs(t, what, got, want, 1e-9*4)
	}

	// Two components per shard, each of two jobs: one on two sites, one on
	// the first of them.
	for k := 0; k < 2; k++ {
		for c := 0; c < 2; c++ {
			sites := bySite[k][2*c : 2*c+2]
			for j := 0; j < 2; j++ {
				id := fmt.Sprintf("s%d-c%d-j%d", k, c, j)
				apply("add "+id, func(b workload.ChurnTarget) error {
					return b.AddJob(id, float64(1+j), demandAt(m, sites[:2-j]...), nil)
				})
			}
		}
	}

	// Each weight-changing write lands on shard k; shard 1-k gets only the
	// broadcast and must re-solve nothing.
	for step, w := range []struct {
		shard int
		op    string
	}{{0, "up"}, {0, "down"}, {1, "up"}, {1, "add"}, {1, "remove"}, {0, "add"}, {0, "remove"}, {1, "down"}} {
		k := w.shard
		other := scs[1-k]
		before := other.Stats()
		id := fmt.Sprintf("s%d-c0-j0", k)
		extra := fmt.Sprintf("s%d-extra", k)
		what := fmt.Sprintf("step %d: %s on shard %d", step, w.op, k)
		apply(what, func(b workload.ChurnTarget) error {
			switch w.op {
			case "up":
				return b.UpdateWeight(id, 3)
			case "down":
				return b.UpdateWeight(id, 0.5)
			case "add":
				return b.AddJob(extra, 2, demandAt(m, bySite[k][0]), nil)
			default:
				return b.RemoveJob(extra)
			}
		})
		after := other.Stats()
		if n := after.GlobalInvalidations - before.GlobalInvalidations; n != 1 {
			t.Fatalf("%s: shard %d saw %d weight-sum changes, want 1", what, 1-k, n)
		}
		if after.LastResolved != 0 || after.LastReused != 2 {
			t.Fatalf("%s: shard %d resolved %d reused %d, want 0/2", what, 1-k, after.LastResolved, after.LastReused)
		}
	}
}
