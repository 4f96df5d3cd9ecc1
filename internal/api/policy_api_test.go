package api

import (
	"context"
	"errors"
	"testing"

	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/wal"
)

// TestPolicyEndpointEngine drives the policy surface end to end on the
// engine backend: read the active policy, switch it at runtime, observe
// the switch in every read surface (policy, config, stats, allocation).
func TestPolicyEndpointEngine(t *testing.T) {
	c, eng := newEngineTestServer(t)
	ctx := context.Background()

	pr, err := c.Policy(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Policy != "amf" {
		t.Fatalf("initial policy %q, want amf", pr.Policy)
	}
	if len(pr.Available) != len(policy.Names()) {
		t.Fatalf("available = %v, want all of %v", pr.Available, policy.Names())
	}

	if err := c.AddJob(ctx, AddJobRequest{ID: "a", Demand: []float64{1, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := setPolicy(ctx, c, "psmmf"); err != nil {
		t.Fatal(err)
	}
	if got := eng.PolicyName(); got != "psmmf" {
		t.Fatalf("engine policy %q after switch", got)
	}
	pr, err = c.Policy(ctx)
	if err != nil || pr.Policy != "psmmf" {
		t.Fatalf("policy after switch = %+v, %v", pr, err)
	}
	cfg, err := c.Config(ctx)
	if err != nil || cfg.Policy != "psmmf" {
		t.Fatalf("config after switch = %+v, %v", cfg, err)
	}
	st, err := c.Stats(ctx)
	if err != nil || st.Policy != "psmmf" {
		t.Fatalf("stats after switch = %+v, %v", st, err)
	}
	alloc, err := c.Allocation(ctx)
	if err != nil || alloc.Policy != "psmmf" {
		t.Fatalf("allocation after switch policy = %q, %v", alloc.Policy, err)
	}
	if len(alloc.Jobs) != 1 {
		t.Fatalf("allocation lost jobs across the switch: %v", alloc.Jobs)
	}

	// Unknown and empty names are invalid_argument; the active policy is
	// untouched.
	if err := setPolicy(ctx, c, "nope"); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("unknown policy err = %v, want ErrInvalidArgument", err)
	}
	if err := setPolicy(ctx, c, ""); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("empty policy err = %v, want ErrInvalidArgument", err)
	}
	if pr, _ := c.Policy(ctx); pr.Policy != "psmmf" {
		t.Fatalf("failed switch changed policy to %q", pr.Policy)
	}
}

// TestPolicyEndpointDirect: a switch through PATCH /v1/config reaches the
// scheduler behind the engine and shows on GET /v1/policy.
func TestPolicyEndpointDirect(t *testing.T) {
	c, sc := newTestServer(t)
	ctx := context.Background()
	if err := setPolicy(ctx, c, "psmmf"); err != nil {
		t.Fatal(err)
	}
	pr, err := c.Policy(ctx)
	if err != nil || pr.Policy != "psmmf" {
		t.Fatalf("policy = %+v, %v", pr, err)
	}
	if got := sc.PolicyName(); got != "psmmf" {
		t.Fatalf("scheduler policy %q after switch", got)
	}
}

// setPolicy switches the fairness policy the one runtime way: a
// PATCH /v1/config carrying only the policy.
func setPolicy(ctx context.Context, c *Client, name string) error {
	_, err := c.SetConfig(ctx, ConfigPatchRequest{Policy: &name})
	return err
}

// TestPolicySwitchSurvivesCrash: a runtime switch is a logged mutation.
// After a crash, replaying the WAL tail re-runs the switch at the same
// point in the mutation order, so the restarted controller comes back
// under the switched policy with the identical allocation.
func TestPolicySwitchSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	st := newDurableStack(t, dir)
	if _, err := st.cl.AddJobs(ctx, []AddJobRequest{
		{ID: "a", Demand: []float64{2, 0}},
		{ID: "b", Demand: []float64{1, 2}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := setPolicy(ctx, st.cl, "psmmf"); err != nil {
		t.Fatal(err)
	}
	if err := st.cl.AddJob(ctx, AddJobRequest{ID: "c", Demand: []float64{1, 1}}); err != nil {
		t.Fatal(err)
	}
	before, err := st.cl.Allocation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st.eng.Crash()

	st2 := newDurableStack(t, dir)
	if got := st2.sc.PolicyName(); got != "psmmf" {
		t.Fatalf("recovered policy %q, want psmmf", got)
	}
	after, err := st2.cl.Allocation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Policy != "psmmf" {
		t.Fatalf("recovered allocation policy %q", after.Policy)
	}
	sameAllocations(t, "crash-recovery across policy switch", after, before)
}

// TestLegacySetPolicyRecordReplays: nothing writes wal.OpSetPolicy any
// more, but a log written before the policy switch moved to
// PATCH /v1/config carries it. Such a log must still recover — under the
// switched policy, with the allocation a switch through PATCH produces.
func TestLegacySetPolicyRecordReplays(t *testing.T) {
	ctx := context.Background()
	jobs := []AddJobRequest{
		{ID: "a", Demand: []float64{2, 0}},
		{ID: "b", Demand: []float64{1, 2}},
	}

	st := newDurableStack(t, t.TempDir())
	if _, err := st.cl.AddJobs(ctx, jobs); err != nil {
		t.Fatal(err)
	}
	if err := setPolicy(ctx, st.cl, "psmmf"); err != nil {
		t.Fatal(err)
	}
	if err := st.cl.AddJob(ctx, AddJobRequest{ID: "c", Demand: []float64{1, 1}}); err != nil {
		t.Fatal(err)
	}
	want, err := st.cl.Allocation(ctx)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	log, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]scheduler.JobSpec, len(jobs))
	for i, j := range jobs {
		specs[i] = j.spec()
	}
	for _, batch := range [][]wal.Mutation{
		{{Op: wal.OpAddJobs, Jobs: specs}},
		{{Op: wal.OpSetPolicy, Policy: "psmmf"}},
		{{Op: wal.OpAddJob, ID: "c", Demand: []float64{1, 1}}},
	} {
		payload, err := wal.EncodeBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	legacy := newDurableStack(t, dir)
	if got := legacy.sc.PolicyName(); got != "psmmf" {
		t.Fatalf("recovered policy %q, want psmmf", got)
	}
	got, err := legacy.cl.Allocation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Policy != "psmmf" {
		t.Fatalf("recovered allocation policy %q", got.Policy)
	}
	sameAllocations(t, "legacy set_policy replay", got, want)
}

// TestRecoveryRefusesMismatchedSnapshotPolicy: a graceful shutdown after
// a switch folds the WAL into a snapshot stamped with the new policy.
// Restarting with the old policy configured must fail loudly at replay,
// not silently serve under the wrong discipline.
func TestRecoveryRefusesMismatchedSnapshotPolicy(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	st := newDurableStack(t, dir)
	if err := st.cl.AddJob(ctx, AddJobRequest{ID: "a", Demand: []float64{1, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := setPolicy(ctx, st.cl, "psmmf"); err != nil {
		t.Fatal(err)
	}
	if err := st.eng.Close(); err != nil { // folds into a final snapshot
		t.Fatal(err)
	}

	_, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scheduler.New(scheduler.Config{SiteCapacity: []float64{2, 2}, Policy: policy.AMF})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Replay(sc); err == nil {
		t.Fatal("replaying a psmmf snapshot into an amf controller succeeded")
	}
	// The right configuration recovers cleanly.
	_, rec2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := scheduler.New(scheduler.Config{SiteCapacity: []float64{2, 2}, Policy: policy.PSMMF})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec2.Replay(sc2); err != nil {
		t.Fatalf("matching recovery failed: %v", err)
	}
	if sc2.PolicyName() != "psmmf" {
		t.Fatalf("recovered policy %q", sc2.PolicyName())
	}
}
