package repro_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

// TestClusterSmoke is the multi-process cluster deployment test: it
// builds the real binaries and boots the topology from the README
// quickstart — two single-engine amf-server shards (one shipping its
// WAL), one read replica tailing that stream, and an amf-router fronting
// the shards — then drives bounded churn through the router and checks
// that the merged allocation matches a single-engine oracle and that the
// replica converges to its primary.
//
// It spawns four OS processes and builds two binaries, so it only runs
// when AMF_CLUSTER_SMOKE=1 (CI runs it as a dedicated job).
func TestClusterSmoke(t *testing.T) {
	if os.Getenv("AMF_CLUSTER_SMOKE") != "1" {
		t.Skip("set AMF_CLUSTER_SMOKE=1 to run the multi-process cluster smoke test")
	}

	bin := t.TempDir()
	for _, cmd := range []string{"amf-server", "amf-router"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", cmd, err, out)
		}
	}

	churn := workload.GenerateChurn(workload.ChurnConfig{
		Sparse: workload.SparseConfig{
			Components:        6,
			JobsPerComponent:  3,
			SitesPerComponent: 2,
			Seed:              515,
		},
		Mutations: 40,
		Seed:      516,
		ZipfSkew:  1.1,
	})
	caps := churn.Inst.SiteCapacity
	capsArg := ""
	for i, c := range caps {
		if i > 0 {
			capsArg += ","
		}
		capsArg += fmt.Sprintf("%g", c)
	}
	const polName = "amf-enhanced"

	shard0 := freeAddr(t)
	shard1 := freeAddr(t)
	ship := freeAddr(t)
	replica := freeAddr(t)
	front := freeAddr(t)
	data := t.TempDir()

	start := func(name string, args ...string) {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", name, err)
		}
		t.Cleanup(func() {
			_ = cmd.Process.Signal(syscall.SIGTERM)
			done := make(chan struct{})
			go func() { _, _ = cmd.Process.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				_ = cmd.Process.Kill()
			}
		})
	}
	start("amf-server", "-listen", shard0, "-capacity", capsArg, "-policy", polName,
		"-data-dir", filepath.Join(data, "shard0"), "-ship-addr", ship, "-metrics-on-exit=false")
	start("amf-server", "-listen", shard1, "-capacity", capsArg, "-policy", polName,
		"-data-dir", filepath.Join(data, "shard1"), "-metrics-on-exit=false")
	start("amf-server", "-listen", replica, "-capacity", capsArg, "-policy", polName,
		"-replica-of", "http://"+ship+"/wal", "-replica-interval", "5ms", "-metrics-on-exit=false")
	start("amf-router", "-listen", front, "-shards",
		"http://"+shard0+",http://"+shard1,
		"-replicas", "http://"+replica)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	router := api.NewClient("http://"+front, nil)
	waitReady(ctx, t, "router", router)

	// Oracle: one scheduler solving the whole instance in-process.
	oracle, err := scheduler.New(scheduler.Config{SiteCapacity: caps, Policy: policy.EnhancedAMF})
	if err != nil {
		t.Fatal(err)
	}
	apply := func(what string, target workload.ChurnTarget) {
		t.Helper()
		if err := churn.Populate(target); err != nil {
			t.Fatalf("%s populate: %v", what, err)
		}
		for i, op := range churn.Ops {
			if err := op.Apply(target); err != nil {
				t.Fatalf("%s op %d: %v", what, i, err)
			}
		}
	}
	apply("oracle", oracle)
	apply("router", smokeTarget{ctx, router})

	want, err := oracle.Allocation()
	if err != nil {
		t.Fatal(err)
	}
	got, err := router.Allocation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != len(want) {
		t.Fatalf("router has %d jobs, oracle %d", len(got.Jobs), len(want))
	}
	tol := 1e-9 * churn.Inst.Scale()
	for id, shares := range want {
		r, ok := got.Jobs[id]
		if !ok {
			t.Fatalf("job %q missing from merged allocation", id)
		}
		for s := range shares {
			if d := r.Shares[s] - shares[s]; d > tol || d < -tol {
				t.Fatalf("job %q site %d: router %g vs oracle %g", id, s, r.Shares[s], shares[s])
			}
		}
	}
	if got.Version == 0 {
		t.Fatal("merged allocation carries no version")
	}

	// The replica must catch up to shard0's stream and then serve
	// shard0's exact allocation read-only.
	rep := api.NewClient("http://"+replica, nil)
	waitReady(ctx, t, "replica", rep)
	s0, err := api.NewClient("http://"+shard0, nil).Allocation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		ra, err := rep.Allocation(ctx)
		if err == nil && len(ra.Jobs) == len(s0.Jobs) {
			for id, shares := range s0.Jobs {
				r, ok := ra.Jobs[id]
				if !ok {
					t.Fatalf("replica missing job %q", id)
				}
				for s := range shares.Shares {
					if d := r.Shares[s] - shares.Shares[s]; d > tol || d < -tol {
						t.Fatalf("replica job %q site %d: %g vs shard0 %g", id, s, r.Shares[s], shares.Shares[s])
					}
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never converged to shard0 (last err %v)", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := rep.AddJob(ctx, api.AddJobRequest{ID: "nope", Demand: make([]float64, len(caps))}); !errors.Is(err, api.ErrInvalidArgument) {
		t.Fatalf("replica accepted a mutation: %v", err)
	}

	// Observability plane, end to end across the real processes: the
	// router's /v1/traces must serve a stitched forest whose children are
	// the shards' commit traces, correlated by parent trace ID.
	tr, err := router.Traces(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	stitched := 0
	for _, p := range tr.Traces {
		for _, c := range p.Children {
			if c.Parent != p.ID {
				t.Fatalf("stitched child %s has parent %s under tree %s", c.ID, c.Parent, p.ID)
			}
			if c.Shard != "0" && c.Shard != "1" {
				t.Fatalf("stitched child labeled shard %q", c.Shard)
			}
			stitched++
		}
	}
	if stitched == 0 {
		t.Fatalf("no shard commits stitched under %d router traces", len(tr.Traces))
	}

	// A named job explanation routes to the owning shard; the replica
	// explains the same allocation read-only.
	var anyJob string
	for id := range got.Jobs {
		anyJob = id
		break
	}
	ex, err := router.Explain(ctx, anyJob)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Job == nil || ex.Job.Name != anyJob || ex.Shard == "" {
		t.Fatalf("router explain %q = %+v", anyJob, ex)
	}
	for id := range s0.Jobs {
		rex, err := rep.Explain(ctx, id)
		if err != nil {
			t.Fatalf("replica explain %q: %v", id, err)
		}
		if rex.Shard != "replica" || rex.Job == nil {
			t.Fatalf("replica explain %q = %+v", id, rex)
		}
		break
	}

	// One federated scrape covers the whole deployment: shard-labeled
	// families, the replica's page, and the router's own telemetry.
	page, err := router.ScrapeMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	body := string(page)
	for _, want := range []string{`shard="0"`, `shard="1"`, `replica="0"`, "amf_cluster_version_spread"} {
		if !strings.Contains(body, want) {
			t.Fatalf("federated /metrics missing %q", want)
		}
	}
}

// smokeTarget drives the churn stream through a cluster's public API.
type smokeTarget struct {
	ctx context.Context
	c   *api.Client
}

func (t smokeTarget) AddJob(id string, w float64, d, wk []float64) error {
	return t.c.AddJob(t.ctx, api.AddJobRequest{ID: id, Weight: w, Demand: d, Work: wk})
}
func (t smokeTarget) RemoveJob(id string) error { return t.c.RemoveJob(t.ctx, id) }
func (t smokeTarget) UpdateWeight(id string, w float64) error {
	return t.c.UpdateWeight(t.ctx, id, w)
}
func (t smokeTarget) ReportProgress(id string, done []float64) (bool, error) {
	return t.c.ReportProgress(t.ctx, id, done)
}

// waitReady polls GET /v1/readyz until the process answers ready.
func waitReady(ctx context.Context, t *testing.T, what string, cl *api.Client) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var err error
	for time.Now().Before(deadline) {
		if err = cl.Readyz(ctx); err == nil {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("%s never became ready: %v", what, err)
}

// freeAddr reserves a loopback port and releases it for the process
// under test to claim.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close()
	return addr
}
