package api

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/wal"
)

// durableStack is one controller process: scheduler + WAL-backed engine +
// HTTP server + client, recovered from dir.
type durableStack struct {
	sc  *scheduler.Scheduler
	eng *serve.Engine
	cl  *Client
}

func newDurableStack(t *testing.T, dir string) *durableStack {
	t.Helper()
	l, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scheduler.New(scheduler.Config{
		SiteCapacity: []float64{2, 2},
		Policy:       policy.AMF,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Replay(sc); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	eng, err := serve.New(sc, serve.Config{Metrics: reg, Log: l})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	srv := NewBackendServer(eng, reg, []float64{2, 2}, policy.AMF)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &durableStack{sc: sc, eng: eng, cl: NewClient(ts.URL, ts.Client())}
}

// TestStructuredErrorCodes: every failure mode carries its stable code on
// the wire and matches the client sentinels under errors.Is.
func TestStructuredErrorCodes(t *testing.T) {
	c, _ := newTestServer(t)
	ctx := context.Background()

	_, err := c.Shares(ctx, "ghost")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown job err = %v, want ErrNotFound", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != CodeNotFound || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job APIError = %+v", apiErr)
	}

	if err := c.AddJob(ctx, AddJobRequest{ID: "a", Demand: []float64{1, 1}}); err != nil {
		t.Fatal(err)
	}
	err = c.AddJob(ctx, AddJobRequest{ID: "a", Demand: []float64{1, 1}})
	if !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("duplicate err = %v, want ErrAlreadyExists", err)
	}

	err = c.AddJob(ctx, AddJobRequest{ID: "b", Demand: []float64{1}})
	if !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("validation err = %v, want ErrInvalidArgument", err)
	}
	if errors.Is(err, ErrNotFound) || errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("invalid_argument matched the wrong sentinel: %v", err)
	}
}

// TestCancelledContextMapsToUnavailable: a request whose context is
// already dead reaches the backend, which refuses it; the server answers
// 503/unavailable.
func TestCancelledContextMapsToUnavailable(t *testing.T) {
	_, srv := newDirectServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs",
		strings.NewReader(`{"id":"x","demand":[1,1]}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled request -> %d, want 503 (body %s)", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), CodeUnavailable) {
		t.Fatalf("cancelled request body %q missing %q", rec.Body.String(), CodeUnavailable)
	}
}

// TestBatchEndpointOneSolve: POST /v1/jobs:batch lands the whole set in
// exactly one solve.
func TestBatchEndpointOneSolve(t *testing.T) {
	st := newDurableStack(t, t.TempDir())
	ctx := context.Background()
	preSolves := st.sc.Stats().Solves

	resp, err := st.cl.AddJobs(ctx, []AddJobRequest{
		{ID: "a", Demand: []float64{1, 0}},
		{ID: "b", Demand: []float64{0, 1}},
		{ID: "c", Demand: []float64{1, 1}, Weight: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Added != 3 || len(resp.Results) != 3 {
		t.Fatalf("batch response = %+v", resp)
	}
	if got := st.sc.Stats().Solves - preSolves; got != 1 {
		t.Fatalf("batch add solved %d times, want exactly 1", got)
	}
	alloc, err := st.cl.Allocation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc.Jobs) != 3 {
		t.Fatalf("allocation has %d jobs after batch, want 3", len(alloc.Jobs))
	}
}

// TestBatchEndpointAllOrNothing: one invalid item rejects the whole
// batch, and the per-item report pinpoints it with its own code.
func TestBatchEndpointAllOrNothing(t *testing.T) {
	st := newDurableStack(t, t.TempDir())
	ctx := context.Background()
	if err := st.cl.AddJob(ctx, AddJobRequest{ID: "taken", Demand: []float64{1, 1}}); err != nil {
		t.Fatal(err)
	}

	resp, err := st.cl.AddJobs(ctx, []AddJobRequest{
		{ID: "fresh", Demand: []float64{1, 0}},
		{ID: "taken", Demand: []float64{0, 1}},      // duplicate
		{ID: "badlen", Demand: []float64{1}},        // wrong arity
		{ID: "fresh2", Demand: []float64{0.5, 0.5}}, // valid, still rejected
	})
	if !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("rejected batch err = %v, want ErrInvalidArgument", err)
	}
	if resp.Added != 0 || len(resp.Results) != 4 {
		t.Fatalf("rejected batch response = %+v", resp)
	}
	if resp.Results[0].Error != "" || resp.Results[3].Error != "" {
		t.Fatalf("valid items carry errors: %+v", resp.Results)
	}
	if resp.Results[1].Code != CodeAlreadyExists {
		t.Fatalf("duplicate item code = %q, want already_exists", resp.Results[1].Code)
	}
	if resp.Results[2].Code != CodeInvalidArgument {
		t.Fatalf("bad-arity item code = %q, want invalid_argument", resp.Results[2].Code)
	}
	// Nothing leaked: only the pre-existing job is allocated.
	alloc, err := st.cl.Allocation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc.Jobs) != 1 {
		t.Fatalf("rejected batch leaked jobs: %v", alloc.Jobs)
	}
	// Duplicate IDs within one batch are also atomic rejections.
	if _, err := st.cl.AddJobs(ctx, []AddJobRequest{
		{ID: "twin", Demand: []float64{1, 0}},
		{ID: "twin", Demand: []float64{0, 1}},
	}); err == nil {
		t.Fatal("in-batch duplicate accepted")
	}
}

// sameAllocations compares two wire allocations to 1e-9 aggregates.
func sameAllocations(t *testing.T, tag string, got, want AllocationResponse) {
	t.Helper()
	if len(got.Jobs) != len(want.Jobs) {
		t.Fatalf("%s: %d jobs, want %d", tag, len(got.Jobs), len(want.Jobs))
	}
	for id, w := range want.Jobs {
		g, ok := got.Jobs[id]
		if !ok {
			t.Fatalf("%s: job %q missing", tag, id)
		}
		if math.Abs(g.Aggregate-w.Aggregate) > 1e-9 {
			t.Fatalf("%s: job %q aggregate %g, want %g", tag, id, g.Aggregate, w.Aggregate)
		}
		for s := range w.Shares {
			if math.Abs(g.Shares[s]-w.Shares[s]) > 1e-9 {
				t.Fatalf("%s: job %q shares %v, want %v", tag, id, g.Shares, w.Shares)
			}
		}
	}
}

// TestClientServerCrashRecoveryRoundTrip is the end-to-end durability
// round-trip over the wire: batch-add through the client, hard-crash the
// engine, restart a fresh stack from the same data directory, and the
// restarted server reports an identical /v1/allocation.
func TestClientServerCrashRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	st := newDurableStack(t, dir)
	if _, err := st.cl.AddJobs(ctx, []AddJobRequest{
		{ID: "etl", Demand: []float64{2, 0}, Work: []float64{10, 0}},
		{ID: "ml", Demand: []float64{1, 2}, Weight: 2},
		{ID: "web", Demand: []float64{1, 1}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.cl.UpdateWeight(ctx, "web", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := st.cl.ReportProgress(ctx, "etl", []float64{4, 0}); err != nil {
		t.Fatal(err)
	}
	before, err := st.cl.Allocation(ctx)
	if err != nil {
		t.Fatal(err)
	}

	st.eng.Crash() // simulated process death: no seal, no final snapshot

	st2 := newDurableStack(t, dir)
	after, err := st2.cl.Allocation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sameAllocations(t, "crash-restart", after, before)

	// The restarted controller is live, not just a replica of the past.
	if err := st2.cl.AddJob(ctx, AddJobRequest{ID: "new", Demand: []float64{0.5, 0.5}}); err != nil {
		t.Fatal(err)
	}
}

// TestClientServerGracefulRestartRoundTrip is the SIGTERM-shaped variant:
// amf-server's signal handler calls eng.Close(), which folds the WAL into
// a final snapshot; the restart recovers from the snapshot alone.
func TestClientServerGracefulRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	st := newDurableStack(t, dir)
	if _, err := st.cl.AddJobs(ctx, []AddJobRequest{
		{ID: "a", Demand: []float64{2, 1}},
		{ID: "b", Demand: []float64{1, 2}},
	}); err != nil {
		t.Fatal(err)
	}
	before, err := st.cl.Allocation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.eng.Close(); err != nil { // what the SIGTERM handler runs
		t.Fatal(err)
	}

	st2 := newDurableStack(t, dir)
	after, err := st2.cl.Allocation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sameAllocations(t, "graceful-restart", after, before)
}

// TestMetricsCarryWALTelemetry: with a WAL attached, /v1/metrics reports
// fsync latency and log-depth telemetry.
func TestMetricsCarryWALTelemetry(t *testing.T) {
	st := newDurableStack(t, t.TempDir())
	ctx := context.Background()
	if err := st.cl.AddJob(ctx, AddJobRequest{ID: "a", Demand: []float64{1, 1}}); err != nil {
		t.Fatal(err)
	}
	m, err := st.cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Histograms["wal.fsync_latency"].Count == 0 {
		t.Fatalf("wal.fsync_latency histogram empty: %v", m.Histograms)
	}
	if m.Histograms["wal.append_latency"].Count == 0 {
		t.Fatalf("wal.append_latency histogram empty: %v", m.Histograms)
	}
	if got, ok := m.Gauges["wal.records_since_compact"]; !ok || got < 1 {
		t.Fatalf("wal.records_since_compact gauge = %v (ok=%v)", got, ok)
	}
	if got := m.Gauges["wal.segments"]; got < 1 {
		t.Fatalf("wal.segments gauge = %v", got)
	}
}
