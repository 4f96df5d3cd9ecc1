package cluster_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/wal"
)

// TestBackendContract serves the three product backends — an engine, the
// router and a read replica — through api.NewBackendServer and checks the
// same routes answer on each: readiness, config, policy, a versioned
// allocation carrying the policy, a per-job explanation and the config
// patch, which only the replica refuses (read-only). The removed alias
// routes answer on none of them.
func TestBackendContract(t *testing.T) {
	caps := []float64{2, 2}
	pol := policy.AMF
	ctx := context.Background()

	log, _, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scheduler.New(scheduler.Config{SiteCapacity: caps, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.New(sc, serve.Config{Log: log})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	if err := eng.AddJob(ctx, "a", 1, []float64{1, 1}, nil); err != nil {
		t.Fatal(err)
	}
	ship := httptest.NewServer(wal.NewShipHandler(log))
	t.Cleanup(ship.Close)
	rep, err := cluster.NewReplica(cluster.ReplicaConfig{
		Source:       &wal.ShipClient{Base: ship.URL, HTTP: ship.Client()},
		SiteCapacity: caps,
		Policy:       pol,
		Interval:     2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rep.Close() })
	waitCaughtUpTo(t, rep, log.Durable())

	shards, _ := newEngineShards(t, 2, caps, pol)
	router, err := cluster.NewRouter(shards, pol)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.AddJob(ctx, "a", 1, []float64{1, 1}, nil); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name     string
		be       api.Backend
		readOnly bool
	}{
		{"engine", eng, false},
		{"router", router, false},
		{"replica", rep, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(api.NewBackendServer(tc.be, nil, caps, pol).Handler())
			defer srv.Close()
			cl := api.NewClient(srv.URL, srv.Client())

			if err := cl.Readyz(ctx); err != nil {
				t.Fatalf("readyz: %v", err)
			}
			cfg, err := cl.Config(ctx)
			if err != nil || cfg.Policy != "amf" || len(cfg.SiteCapacity) != 2 {
				t.Fatalf("config = %+v, %v", cfg, err)
			}
			if pr, err := cl.Policy(ctx); err != nil || pr.Policy != "amf" {
				t.Fatalf("policy = %+v, %v", pr, err)
			}
			alloc, err := cl.Allocation(ctx)
			if err != nil || len(alloc.Jobs) != 1 || alloc.Version == 0 || alloc.Policy != "amf" {
				t.Fatalf("allocation = %+v, %v", alloc, err)
			}
			ex, err := cl.Explain(ctx, "a")
			if err != nil || ex.Job == nil || ex.Job.Name != "a" {
				t.Fatalf("explain = %+v, %v", ex, err)
			}

			_, err = cl.SetConfig(ctx, api.ConfigPatchRequest{
				Solver: &api.SolverPatchSection{ApproxThreshold: iptr(100)},
			})
			switch {
			case tc.readOnly && (!errors.Is(err, api.ErrInvalidArgument) || !strings.Contains(err.Error(), "read-only")):
				t.Fatalf("replica config patch = %v, want a read-only invalid_argument", err)
			case !tc.readOnly && err != nil:
				t.Fatalf("config patch: %v", err)
			}

			for _, r := range []struct{ method, path string }{
				{http.MethodPut, "/v1/policy"},
				{http.MethodPut, "/v1/solver/approx"},
				{http.MethodGet, "/v1/solver/approx"},
			} {
				req, err := http.NewRequestWithContext(ctx, r.method, srv.URL+r.path, strings.NewReader(`{}`))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := srv.Client().Do(req)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
					t.Errorf("%s %s = %d, want 404 or 405", r.method, r.path, resp.StatusCode)
				}
			}
		})
	}
}
