package cluster_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/obs/span"
	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/workload"
)

// TestRouterOverHTTPShards runs the whole wire path: engine shards
// behind real API servers, a router over HTTPShards, and the router's
// own HTTP handler — merged allocations must still match the
// single-scheduler oracle, and the cluster routes must serve.
func TestRouterOverHTTPShards(t *testing.T) {
	pol := policy.EnhancedAMF
	churn := workload.GenerateChurn(workload.ChurnConfig{
		Sparse: workload.SparseConfig{
			Components:        6,
			JobsPerComponent:  3,
			SitesPerComponent: 2,
			Seed:              21,
		},
		Mutations: 30,
		Seed:      22,
	})
	caps := churn.Inst.SiteCapacity

	shards := make([]cluster.Shard, 2)
	for i := range shards {
		sc, err := scheduler.New(scheduler.Config{SiteCapacity: caps, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		rec := span.NewRecorder(64)
		eng, err := serve.New(sc, serve.Config{Traces: rec})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = eng.Close() })
		srv := httptest.NewServer(api.NewBackendServer(eng, nil, caps, pol).SetTraces(rec).Handler())
		t.Cleanup(srv.Close)
		shards[i] = cluster.HTTPShard{Client: api.NewClient(srv.URL, srv.Client())}
	}
	router, err := cluster.NewRouter(shards, pol)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(cluster.NewHandler(router, nil, caps, pol))
	t.Cleanup(front.Close)
	cl := api.NewClient(front.URL, front.Client())
	ctx := context.Background()

	oracle, err := scheduler.New(scheduler.Config{SiteCapacity: caps, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}

	// Drive the churn stream through the router's public HTTP API.
	clientTarget := apiTarget{cl}
	if err := churn.Populate(oracle); err != nil {
		t.Fatal(err)
	}
	if err := churn.Populate(clientTarget); err != nil {
		t.Fatal(err)
	}
	for i, op := range churn.Ops {
		if err := op.Apply(oracle); err != nil {
			t.Fatalf("oracle op %d: %v", i, err)
		}
		if err := op.Apply(clientTarget); err != nil {
			t.Fatalf("router op %d: %v", i, err)
		}
	}

	if err := cl.Readyz(ctx); err != nil {
		t.Fatalf("cluster readyz = %v", err)
	}
	alloc, err := cl.Allocation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Allocation()
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string][]float64, len(alloc.Jobs))
	for id, sh := range alloc.Jobs {
		got[id] = sh.Shares
	}
	diffAllocs(t, "http router vs oracle", got, want, 1e-9*churn.Inst.Scale())
	if alloc.Version == 0 {
		t.Fatal("merged allocation has version 0")
	}

	// Cluster-specific routes.
	var versions cluster.VersionsResponse
	getJSON(t, front.URL+"/v1/cluster/versions", &versions)
	if versions.Shards != 2 || len(versions.Versions) != 2 || versions.Sum != alloc.Version {
		t.Fatalf("versions = %+v (allocation version %d)", versions, alloc.Version)
	}
	var rstats cluster.RouterStatsResponse
	getJSON(t, front.URL+"/v1/cluster/stats", &rstats)
	if rstats.Jobs == 0 || rstats.Broadcasts == 0 {
		t.Fatalf("router stats = %+v", rstats)
	}
	traces, err := cl.Traces(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces.Traces) == 0 {
		t.Fatal("merged traces empty")
	}
	for i := 1; i < len(traces.Traces); i++ {
		if traces.Traces[i].Start.After(traces.Traces[i-1].Start) {
			t.Fatal("merged traces not newest-first")
		}
	}
	// Merged stats through the standard surface.
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ost := oracle.Stats()
	if st.Jobs != ost.Jobs {
		t.Fatalf("merged stats jobs = %d, oracle %d", st.Jobs, ost.Jobs)
	}
}

// apiTarget adapts the typed API client to workload.ChurnTarget.
type apiTarget struct{ c *api.Client }

func (t apiTarget) AddJob(id string, w float64, d, wk []float64) error {
	return t.c.AddJob(context.Background(), api.AddJobRequest{ID: id, Weight: w, Demand: d, Work: wk})
}
func (t apiTarget) RemoveJob(id string) error {
	return t.c.RemoveJob(context.Background(), id)
}
func (t apiTarget) UpdateWeight(id string, w float64) error {
	return t.c.UpdateWeight(context.Background(), id, w)
}
func (t apiTarget) ReportProgress(id string, done []float64) (bool, error) {
	return t.c.ReportProgress(context.Background(), id, done)
}

func getJSON(t *testing.T, url string, out interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestRouterRejectsUnknownJobFields: through the router's handler too, a
// registration body naming a queue is refused with unknown_field instead
// of routing the job with the queue dropped.
func TestRouterRejectsUnknownJobFields(t *testing.T) {
	caps := []float64{1, 1}
	shards, scs := newEngineShards(t, 2, caps, policy.AMF)
	router, err := cluster.NewRouter(shards, policy.AMF)
	if err != nil {
		t.Fatal(err)
	}
	h := cluster.NewHandler(router, nil, caps, policy.AMF)
	for _, tc := range []struct{ path, body string }{
		{"/v1/jobs", `{"id":"r","queue":"research","demand":[1,0]}`},
		{"/v1/jobs:batch", `{"jobs":[{"id":"r","demand":[1,0]},{"id":"s","queue":"research","demand":[0,1]}]}`},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
		var resp api.ConfigPatchError
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusBadRequest || len(resp.Fields) != 1 ||
			resp.Fields[0].Field != "queue" || resp.Fields[0].Code != api.FieldCodeUnknownField {
			t.Fatalf("POST %s %s: %d %s, want 400 naming field queue with code %q",
				tc.path, tc.body, rec.Code, rec.Body.String(), api.FieldCodeUnknownField)
		}
	}
	for i, sc := range scs {
		if n := sc.Stats().Jobs; n != 0 {
			t.Fatalf("shard %d holds %d jobs after rejected registrations", i, n)
		}
	}
}

// TestTracesRejectsNegativeLimit: a bad ?limit on the router's trace
// route answers with the standard API error body, 400 invalid_argument.
func TestTracesRejectsNegativeLimit(t *testing.T) {
	caps := []float64{1, 1}
	shards, _ := newEngineShards(t, 2, caps, policy.AMF)
	router, err := cluster.NewRouter(shards, policy.AMF)
	if err != nil {
		t.Fatal(err)
	}
	h := cluster.NewHandler(router, nil, caps, policy.AMF)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/traces?limit=-1", nil))
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("body %q does not decode: %v", rec.Body, err)
	}
	if rec.Code != http.StatusBadRequest || body["code"] != api.CodeInvalidArgument || body["error"] == "" {
		t.Fatalf("got %d %v, want 400 %q", rec.Code, body, api.CodeInvalidArgument)
	}
}
