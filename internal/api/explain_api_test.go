package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs/span"
	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/serve"
)

// TestStatsLatencyQuantiles: after a commit, GET /v1/stats reports p50/
// p95/p99 for the engine's solve and commit latency histograms.
func TestStatsLatencyQuantiles(t *testing.T) {
	ts, _, _ := newTracedServer(t)

	resp := postJSON(t, ts.URL+"/v1/jobs", `{"id":"a","demand":[2,0]}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add job status = %d", resp.StatusCode)
	}

	g, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(g.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct {
		name string
		lq   *LatencyQuantiles
	}{{"solve", st.SolveLatency}, {"commit", st.CommitLatency}} {
		if q.lq == nil {
			t.Fatalf("stats missing %s latency quantiles", q.name)
		}
		if q.lq.Count < 1 {
			t.Fatalf("%s latency count = %d", q.name, q.lq.Count)
		}
		if q.lq.P50Seconds > q.lq.P95Seconds || q.lq.P95Seconds > q.lq.P99Seconds {
			t.Fatalf("%s quantiles not monotone: %+v", q.name, q.lq)
		}
		if q.lq.P99Seconds <= 0 {
			t.Fatalf("%s p99 = %g", q.name, q.lq.P99Seconds)
		}
	}
}

// TestStatsQuantilesAbsentBeforeCommits: a fresh engine has empty latency
// histograms, so the stats response omits the quantile blocks entirely.
func TestStatsQuantilesAbsentBeforeCommits(t *testing.T) {
	ts, _, _ := newTracedServer(t)
	g, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(g.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.SolveLatency != nil || st.CommitLatency != nil {
		t.Fatalf("quantiles reported with no commits: %+v %+v", st.SolveLatency, st.CommitLatency)
	}
}

// TestEngineExplainEndpoint: GET /v1/explain serves the full post-hoc
// water-filling explanation; ?job= narrows to one row and unknown names
// are a 404 with the stable not_found code.
func TestEngineExplainEndpoint(t *testing.T) {
	ts, _, _ := newTracedServer(t)

	for _, body := range []string{
		`{"id":"big","demand":[4,4]}`,
		`{"id":"small","demand":[1,0]}`,
	} {
		if resp := postJSON(t, ts.URL+"/v1/jobs", body); resp.StatusCode != http.StatusCreated {
			t.Fatalf("add job status = %d", resp.StatusCode)
		}
	}

	g, err := http.Get(ts.URL + "/v1/explain")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Body.Close()
	var full ExplainResponse
	if err := json.NewDecoder(g.Body).Decode(&full); err != nil {
		t.Fatal(err)
	}
	if len(full.Jobs) != 2 || len(full.Sites) == 0 {
		t.Fatalf("full dump = %d jobs %d sites", len(full.Jobs), len(full.Sites))
	}
	if full.Version == 0 || full.Policy != policy.AMF.Name() || full.Shard != "" {
		t.Fatalf("explain header = %+v", full)
	}
	if full.Scale <= 0 || full.Tol <= 0 || full.SatTol < full.Tol {
		t.Fatalf("tolerances = scale %g tol %g sat %g", full.Scale, full.Tol, full.SatTol)
	}
	for _, j := range full.Jobs {
		switch j.Limit {
		case core.ExplainDemandCapped, core.ExplainBottlenecked,
			core.ExplainFloorBound, core.ExplainZeroDemand:
		default:
			t.Fatalf("job %s has unclassified limit %q", j.Name, j.Limit)
		}
	}

	n, err := http.Get(ts.URL + "/v1/explain?job=small")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Body.Close()
	var one ExplainResponse
	if err := json.NewDecoder(n.Body).Decode(&one); err != nil {
		t.Fatal(err)
	}
	if one.Job == nil || one.Job.Name != "small" || len(one.Jobs) != 0 {
		t.Fatalf("named explain = %+v", one)
	}
	// "small" demands 1 on a 4-capacity site shared with "big": demand is
	// the binding limit and the row must say so.
	if one.Job.Limit != core.ExplainDemandCapped {
		t.Fatalf("small limit = %q, want demand-capped", one.Job.Limit)
	}

	bad, err := http.Get(ts.URL + "/v1/explain?job=nope")
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Body.Close()
	if bad.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d", bad.StatusCode)
	}
}

// TestSlowTracesEndpoint: GET /v1/traces?slow=1 reads the slow-trace
// retention ring, slowest first, and reports its capacity.
func TestSlowTracesEndpoint(t *testing.T) {
	sc, err := scheduler.New(scheduler.Config{SiteCapacity: []float64{4, 4}, Policy: policy.AMF})
	if err != nil {
		t.Fatal(err)
	}
	rec := span.NewRecorder(32)
	slow := span.NewSlowRecorder(8, time.Hour)
	eng, err := serve.New(sc, serve.Config{Traces: rec, SlowTraces: slow})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	srv := NewBackendServer(eng, nil, []float64{4, 4}, policy.AMF).SetTraces(rec).SetSlowTraces(slow)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	for _, body := range []string{
		`{"id":"a","demand":[1,0]}`,
		`{"id":"b","demand":[0,1]}`,
	} {
		if resp := postJSON(t, ts.URL+"/v1/jobs", body); resp.StatusCode != http.StatusCreated {
			t.Fatalf("add job status = %d", resp.StatusCode)
		}
	}

	g, err := http.Get(ts.URL + "/v1/traces?slow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Body.Close()
	var tresp TracesResponse
	if err := json.NewDecoder(g.Body).Decode(&tresp); err != nil {
		t.Fatal(err)
	}
	if !tresp.Slow || tresp.Capacity != 8 {
		t.Fatalf("slow response header = slow=%v cap=%d", tresp.Slow, tresp.Capacity)
	}
	if len(tresp.Traces) == 0 {
		t.Fatal("slow ring empty after commits")
	}
	for i := 1; i < len(tresp.Traces); i++ {
		if tresp.Traces[i].Total > tresp.Traces[i-1].Total {
			t.Fatal("slow traces not slowest-first")
		}
	}
}
