package cluster_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/wal"
)

// newObservedShards builds n engine shards with the full observability
// kit attached: a trace ring, a slow-trace retention ring, and a metrics
// registry — the same wiring runCluster performs in the binary.
func newObservedShards(t *testing.T, n int, caps []float64, pol policy.Policy) []cluster.Shard {
	t.Helper()
	shards := make([]cluster.Shard, n)
	for i := 0; i < n; i++ {
		sc, err := scheduler.New(scheduler.Config{SiteCapacity: caps, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		rec := span.NewRecorder(64)
		slow := span.NewSlowRecorder(16, time.Hour)
		reg := obs.NewRegistry()
		eng, err := serve.New(sc, serve.Config{Traces: rec, SlowTraces: slow, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = eng.Close() })
		shards[i] = cluster.EngineShard{Eng: eng, Rec: rec, Slow: slow, Reg: reg}
	}
	return shards
}

// TestClusterTraceStitching drives mutations through the router's HTTP
// surface and checks the stitched forest: router-level parents carry the
// shards' commit traces as children, correlated by parent trace ID and
// labeled with the owning shard; ?slow=1 reads the shards' slow-trace
// retention rings, slowest first.
func TestClusterTraceStitching(t *testing.T) {
	pol := policy.AMF
	nSites := 8
	caps := make([]float64, nSites)
	for i := range caps {
		caps[i] = 10
	}
	s0, s1 := splitSites(t, nSites)

	shards := newObservedShards(t, 2, caps, pol)
	router, err := cluster.NewRouter(shards, pol)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(cluster.NewHandler(router, nil, caps, pol))
	t.Cleanup(front.Close)
	cl := api.NewClient(front.URL, front.Client())
	ctx := context.Background()

	for _, j := range []struct {
		id   string
		site int
	}{{"a", s0}, {"b", s1}, {"c", s0}} {
		if err := cl.AddJob(ctx, api.AddJobRequest{ID: j.id, Demand: demandAt(nSites, j.site)}); err != nil {
			t.Fatalf("add %s: %v", j.id, err)
		}
	}

	tr, err := cl.Traces(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Traces) == 0 {
		t.Fatal("no router traces recorded")
	}
	children := 0
	shardsSeen := map[string]bool{}
	for _, p := range tr.Traces {
		for _, c := range p.Children {
			children++
			if c.Parent != p.ID {
				t.Fatalf("child %s stitched under %s but Parent=%s", c.ID, p.ID, c.Parent)
			}
			if c.Shard == "" {
				t.Fatalf("stitched child %s has no shard label", c.ID)
			}
			shardsSeen[c.Shard] = true
		}
	}
	if children < 3 {
		t.Fatalf("expected >=3 stitched shard commits, got %d", children)
	}
	if !shardsSeen["0"] || !shardsSeen["1"] {
		t.Fatalf("stitched children cover shards %v, want both 0 and 1", shardsSeen)
	}
	for i := 1; i < len(tr.Traces); i++ {
		if tr.Traces[i].Start.After(tr.Traces[i-1].Start) {
			t.Fatal("stitched forest not newest-first")
		}
	}

	// The slow view reads the shards' retention rings: slowest first,
	// every entry labeled with its shard.
	sl, err := cl.SlowTraces(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sl.Slow {
		t.Fatal("slow response not marked slow")
	}
	if len(sl.Traces) == 0 {
		t.Fatal("slow retention rings empty after commits")
	}
	for i, tc := range sl.Traces {
		if tc.Shard == "" {
			t.Fatalf("slow trace %d has no shard label", i)
		}
		if i > 0 && tc.Total > sl.Traces[i-1].Total {
			t.Fatal("slow traces not slowest-first")
		}
	}
}

// TestTraceHeaderPropagation covers the wire leg of stitching: a client
// context carrying trace and parent IDs must ride the X-AMF-Trace-Id and
// X-AMF-Parent-Span headers into a remote engine's commit trace.
func TestTraceHeaderPropagation(t *testing.T) {
	pol := policy.AMF
	caps := []float64{10, 10}
	sc, err := scheduler.New(scheduler.Config{SiteCapacity: caps, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	rec := span.NewRecorder(16)
	eng, err := serve.New(sc, serve.Config{Traces: rec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	srv := httptest.NewServer(api.NewBackendServer(eng, nil, caps, pol).SetTraces(rec).Handler())
	t.Cleanup(srv.Close)
	cl := api.NewClient(srv.URL, srv.Client())

	const parent = span.ID("router-trace-1")
	ctx := span.NewParentContext(span.NewContext(context.Background(), parent), parent)
	if err := cl.AddJob(ctx, api.AddJobRequest{ID: "j", Demand: []float64{1, 0}}); err != nil {
		t.Fatal(err)
	}

	var got *span.Trace
	for _, tr := range rec.Recent(0) {
		if tr.ID == parent {
			got = tr
			break
		}
	}
	if got == nil {
		t.Fatalf("no engine trace adopted the request trace ID %q", parent)
	}
	if got.Parent != parent {
		t.Fatalf("engine trace parent = %q, want %q (X-AMF-Parent-Span lost)", got.Parent, parent)
	}
}

// TestRouterExplainRouting exercises /v1/explain through the cluster
// handler: a named job is routed to its owning shard, the response is
// labeled with that shard, and the explained level matches the merged
// allocation. Full dumps and unknown jobs are refused with stable codes.
func TestRouterExplainRouting(t *testing.T) {
	pol := policy.EnhancedAMF
	nSites := 8
	caps := make([]float64, nSites)
	for i := range caps {
		caps[i] = 6
	}
	s0, s1 := splitSites(t, nSites)

	shards, _ := newEngineShards(t, 2, caps, pol)
	router, err := cluster.NewRouter(shards, pol)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(cluster.NewHandler(router, nil, caps, pol))
	t.Cleanup(front.Close)
	cl := api.NewClient(front.URL, front.Client())
	ctx := context.Background()

	if err := cl.AddJob(ctx, api.AddJobRequest{ID: "a", Demand: demandAt(nSites, s0)}); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddJob(ctx, api.AddJobRequest{ID: "b", Demand: demandAt(nSites, s1)}); err != nil {
		t.Fatal(err)
	}

	ra, err := cl.Explain(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := cl.Explain(ctx, "b")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		name string
		resp api.ExplainResponse
	}{{"a", ra}, {"b", rb}} {
		if r.resp.Job == nil || r.resp.Job.Name != r.name {
			t.Fatalf("explain %q returned job %+v", r.name, r.resp.Job)
		}
		if r.resp.Shard == "" {
			t.Fatalf("explain %q carries no shard label", r.name)
		}
		if r.resp.Policy != pol.Name() {
			t.Fatalf("explain %q policy = %q", r.name, r.resp.Policy)
		}
		if r.resp.Job.Limit == "" {
			t.Fatalf("explain %q has no limit classification", r.name)
		}
	}
	if ra.Shard == rb.Shard {
		t.Fatalf("jobs on split sites explained by the same shard %q", ra.Shard)
	}

	// The explained level must agree with the merged allocation read.
	alloc, err := cl.Allocation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range alloc.Jobs["a"].Shares {
		sum += s
	}
	if d := ra.Job.Level - sum; d > 1e-9 || d < -1e-9 {
		t.Fatalf("explained level %g vs allocated %g", ra.Job.Level, sum)
	}

	if _, err := cl.Explain(ctx, ""); !errors.Is(err, api.ErrInvalidArgument) {
		t.Fatalf("full dump through router = %v, want invalid_argument", err)
	}
	if _, err := cl.Explain(ctx, "nope"); !errors.Is(err, api.ErrNotFound) {
		t.Fatalf("unknown job = %v, want not_found", err)
	}
}

// TestFederatedClusterMetrics checks the router's /metrics page: every
// shard's scrape appears relabeled shard="i", registered extra targets
// appear under their own label, families are merged under one # TYPE
// header, and the router's own fan-out telemetry rides along.
func TestFederatedClusterMetrics(t *testing.T) {
	pol := policy.AMF
	nSites := 8
	caps := make([]float64, nSites)
	for i := range caps {
		caps[i] = 10
	}
	s0, s1 := splitSites(t, nSites)

	shards := newObservedShards(t, 2, caps, pol)
	router, err := cluster.NewRouter(shards, pol)
	if err != nil {
		t.Fatal(err)
	}
	router.AddScrapeTarget("replica", "0", func(ctx context.Context) ([]byte, error) {
		return []byte("# TYPE amf_fake_total counter\namf_fake_total 3\n"), nil
	})
	front := httptest.NewServer(cluster.NewHandler(router, nil, caps, pol))
	t.Cleanup(front.Close)
	cl := api.NewClient(front.URL, front.Client())
	ctx := context.Background()

	if err := cl.AddJob(ctx, api.AddJobRequest{ID: "a", Demand: demandAt(nSites, s0)}); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddJob(ctx, api.AddJobRequest{ID: "b", Demand: demandAt(nSites, s1)}); err != nil {
		t.Fatal(err)
	}
	// A merged read feeds the router's fan-out latency histogram, so the
	// router-only families appear on the page alongside the shard scrapes.
	if _, err := cl.Allocation(ctx); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, want := range []string{
		`shard="0"`,
		`shard="1"`,
		`amf_fake_total{replica="0"} 3`,
		"amf_cluster_fanout_latency_seconds",
		"amf_cluster_version_spread",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("federated page missing %q\n%s", want, body)
		}
	}
	// Both shards export the commit-latency family; federation must merge
	// their series under a single # TYPE header.
	if n := strings.Count(body, "# TYPE amf_engine_commit_latency"); n != 1 {
		t.Fatalf("amf_engine_commit_latency declared %d times, want 1", n)
	}

	// The client helper used for replica federation reads the same page.
	page, err := cl.ScrapeMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(page), `shard="0"`) {
		t.Fatal("ScrapeMetrics returned a different page")
	}
}

// TestReplicaReplayTraces: a replica with a trace buffer records one
// replay trace per applied WAL batch, tagged shard="replica" with a
// monotonic batch sequence and decode/apply stages.
func TestReplicaReplayTraces(t *testing.T) {
	pol := policy.AMF
	caps := []float64{4, 4, 4}

	dir := filepath.Join(t.TempDir(), "wal")
	log, _, err := wal.Open(dir, wal.Options{SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scheduler.New(scheduler.Config{SiteCapacity: caps, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.New(sc, serve.Config{Log: log, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })

	srv := httptest.NewServer(wal.NewShipHandler(log))
	t.Cleanup(srv.Close)
	rep, err := cluster.NewReplica(cluster.ReplicaConfig{
		Source:       &wal.ShipClient{Base: srv.URL, HTTP: srv.Client()},
		SiteCapacity: caps,
		Policy:       pol,
		Interval:     2 * time.Millisecond,
		TraceBuffer:  32,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rep.Close() })

	ctx := context.Background()
	for i := 0; i < 6; i++ {
		id := string(rune('a' + i))
		if err := eng.AddJob(ctx, id, 0, []float64{1, 1, 0}, nil); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUpTo(t, rep, log.Durable())

	traces := rep.Traces().Recent(0)
	if len(traces) == 0 {
		t.Fatal("replica recorded no replay traces")
	}
	for i, tr := range traces {
		if tr.Shard != "replica" {
			t.Fatalf("replay trace %d shard = %q", i, tr.Shard)
		}
		if tr.Seq == 0 {
			t.Fatalf("replay trace %d has no batch seq", i)
		}
		if i > 0 && tr.Seq >= traces[i-1].Seq {
			t.Fatal("replay seqs not monotonic (newest first)")
		}
		stages := map[string]bool{}
		for _, sp := range tr.Spans {
			stages[sp.Name] = true
		}
		if !stages["decode"] || !stages["apply"] {
			t.Fatalf("replay trace %d stages = %v, want decode+apply", i, tr.Spans)
		}
	}
}
