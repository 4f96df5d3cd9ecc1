package cluster_test

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/scheduler"
)

func fptr(v float64) *float64 { return &v }
func iptr(v int) *int         { return &v }
func sptr(v string) *string   { return &v }

// TestRouterConfigFanOut checks that a cluster-wide patch reaches every
// shard and that the router's merged read agrees afterwards.
func TestRouterConfigFanOut(t *testing.T) {
	shards, scs := newEngineShards(t, 2, []float64{1, 1, 1, 1}, policy.AMF)
	r, err := cluster.NewRouter(shards, policy.AMF)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	patch := scheduler.ConfigPatch{
		ApproxEpsilon:   fptr(0.05),
		ApproxThreshold: iptr(2000),
	}
	if err := r.ApplyConfig(ctx, patch); err != nil {
		t.Fatal(err)
	}
	for i, sc := range scs {
		rc := sc.RuntimeConfig()
		if rc.ApproxEpsilon != 0.05 || rc.ApproxThreshold != 2000 {
			t.Fatalf("shard %d solver knobs %+v", i, rc)
		}
	}
	rc, err := r.RuntimeConfig(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rc.ApproxEpsilon != 0.05 || rc.ApproxThreshold != 2000 {
		t.Fatalf("router merged config %+v", rc)
	}

	// An empty patch is a cluster-wide no-op.
	if err := r.ApplyConfig(ctx, scheduler.ConfigPatch{}); err != nil {
		t.Fatal(err)
	}
}

// TestRouterConfigMismatch checks the read path refuses to pick a winner
// when shards have diverged.
func TestRouterConfigMismatch(t *testing.T) {
	shards, scs := newEngineShards(t, 2, []float64{1, 1, 1, 1}, policy.AMF)
	r, err := cluster.NewRouter(shards, policy.AMF)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.RuntimeConfig(ctx); err != nil {
		t.Fatalf("fresh cluster should agree: %v", err)
	}
	// Diverge one shard out-of-band (operator hitting a shard directly).
	if err := scs[1].SetApproxConfig(0.5, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RuntimeConfig(ctx); !errors.Is(err, cluster.ErrConfigMismatch) {
		t.Fatalf("diverged cluster: err = %v, want ErrConfigMismatch", err)
	}
	// A cluster-wide patch that overwrites the diverged knobs re-converges
	// the cluster; the read works again.
	if err := r.ApplyConfig(ctx, scheduler.ConfigPatch{
		ApproxEpsilon: fptr(0.01), ApproxThreshold: iptr(100),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RuntimeConfig(ctx); err != nil {
		t.Fatalf("repatched cluster should agree: %v", err)
	}
}

// TestRouterConfigPolicySwitch flips an AMF cluster to Enhanced-AMF
// through the unified patch and checks the router starts brokering
// global weight sums (the Enhanced-AMF cross-shard protocol).
func TestRouterConfigPolicySwitch(t *testing.T) {
	shards, scs := newEngineShards(t, 2, []float64{1, 1, 1, 1}, policy.AMF)
	r, err := cluster.NewRouter(shards, policy.AMF)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s0, s1 := splitSites(t, 4)

	if err := r.AddJob(ctx, "a", 2, demandAt(4, s0), nil); err != nil {
		t.Fatal(err)
	}
	if err := r.AddJob(ctx, "b", 4, demandAt(4, s1), nil); err != nil {
		t.Fatal(err)
	}
	// AMF clusters never broadcast external weights.
	if scs[0].ExternalWeight() != 0 || scs[1].ExternalWeight() != 0 {
		t.Fatal("AMF cluster broadcast external weights")
	}

	if err := r.ApplyConfig(ctx, scheduler.ConfigPatch{Policy: sptr("amf-enhanced")}); err != nil {
		t.Fatal(err)
	}
	if got := r.PolicyName(); got != "amf-enhanced" {
		t.Fatalf("router policy after switch %q", got)
	}
	// The switch triggers a full weight broadcast: each shard sees the
	// cluster weight sum minus its own local sum.
	if got := scs[0].ExternalWeight(); math.Abs(got-4) > 1e-12 {
		t.Fatalf("shard 0 external weight %g, want 4", got)
	}
	if got := scs[1].ExternalWeight(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("shard 1 external weight %g, want 2", got)
	}
	// And subsequent mutations keep brokering.
	if err := r.UpdateWeight(ctx, "a", 6); err != nil {
		t.Fatal(err)
	}
	if got := scs[1].ExternalWeight(); math.Abs(got-6) > 1e-12 {
		t.Fatalf("shard 1 external weight after reweight %g, want 6", got)
	}
}

// TestRouterConfigMixedPolicyRefusal checks a patch is refused while the
// shards disagree on policy (the same refusal mutations get).
func TestRouterConfigMixedPolicyRefusal(t *testing.T) {
	shards, scs := newEngineShards(t, 2, []float64{1, 1, 1, 1}, policy.AMF)
	r, err := cluster.NewRouter(shards, policy.AMF)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := scs[1].SetPolicyName("psmmf"); err != nil {
		t.Fatal(err)
	}
	err = r.ApplyConfig(ctx, scheduler.ConfigPatch{ApproxEpsilon: fptr(0.5)})
	if !errors.Is(err, cluster.ErrPolicyMismatch) {
		t.Fatalf("mixed-policy patch: err = %v, want ErrPolicyMismatch", err)
	}
	// Unknown policies are rejected before touching any shard.
	before := scs[0].RuntimeConfig()
	if err := scs[1].SetPolicyName("amf"); err != nil {
		t.Fatal(err)
	}
	if err := r.ApplyConfig(ctx, scheduler.ConfigPatch{Policy: sptr("fifo")}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if scs[0].RuntimeConfig() != before {
		t.Fatal("rejected patch mutated shard 0")
	}
}

// TestRouterConfigOverHTTPShards runs the config fan-out across real API
// servers: the router's ApplyConfig becomes PATCH /v1/config on each
// shard and RuntimeConfig becomes GET /v1/config.
func TestRouterConfigOverHTTPShards(t *testing.T) {
	caps := []float64{1, 1, 1, 1}
	engines, scs := newEngineShards(t, 2, caps, policy.AMF)
	shards := make([]cluster.Shard, len(engines))
	for i, sh := range engines {
		srv := api.NewBackendServer(sh.(cluster.EngineShard).Eng, nil, caps, policy.AMF)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		shards[i] = cluster.HTTPShard{Client: api.NewClient(ts.URL, ts.Client())}
	}
	r, err := cluster.NewRouter(shards, policy.AMF)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if err := r.ApplyConfig(ctx, scheduler.ConfigPatch{
		Policy:          sptr("amf-enhanced"),
		ApproxEpsilon:   fptr(0.02),
		ApproxThreshold: iptr(4),
	}); err != nil {
		t.Fatal(err)
	}
	for i, sc := range scs {
		rc := sc.RuntimeConfig()
		if rc.Policy != "amf-enhanced" || rc.ApproxEpsilon != 0.02 || rc.ApproxThreshold != 4 {
			t.Fatalf("shard %d config over HTTP %+v", i, rc)
		}
	}
	rc, err := r.RuntimeConfig(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Policy != "amf-enhanced" || rc.ApproxThreshold != 4 {
		t.Fatalf("router merged config over HTTP %+v", rc)
	}
}
