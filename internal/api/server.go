// Package api exposes the scheduler controller over a JSON/HTTP control
// plane — the deployment surface for running the allocator as a sidecar or
// standalone service — together with a typed Go client.
//
// Endpoints (all JSON):
//
//	GET    /v1/healthz                 liveness: 200 as long as the process
//	                                   can serve HTTP at all — reads keep
//	                                   working even after a WAL fail-stop
//	GET    /v1/readyz                  readiness: 200 only when the backend
//	                                   can take mutations and is caught up;
//	                                   503 {"code":"unavailable"} while WAL
//	                                   recovery/replica replay is in
//	                                   progress or after fail-stop
//	                                   (serve.ErrWALFailed). Routers and
//	                                   load balancers health-check THIS,
//	                                   not /v1/healthz.
//	GET    /v1/config                  the runtime-tuning document: site
//	                                   capacities, policy, solver knobs
//	PATCH  /v1/config                  apply a partial runtime-tuning
//	                                   update: validated in full with
//	                                   per-field error codes, applied
//	                                   atomically, WAL-logged — the only
//	                                   runtime write path for the policy
//	                                   and solver knobs
//	GET    /v1/policy                  active fairness policy + valid names
//	POST   /v1/jobs                    register a job
//	POST   /v1/jobs:batch              register many jobs atomically, one solve
//	DELETE /v1/jobs/{id}               deregister (cancel) a job
//	POST   /v1/jobs/{id}/progress     report completed work
//	PUT    /v1/jobs/{id}/weight       change a job's weight
//	GET    /v1/jobs/{id}/shares       one job's current shares
//	GET    /v1/allocation              all current shares
//	GET    /v1/stats                   controller counters
//	GET    /v1/metrics                 metrics registry snapshot
//	GET    /v1/traces                  recent commit traces (see SetTraces)
//	GET    /v1/snapshot                download controller state
//	PUT    /v1/snapshot                restore controller state
//	PUT    /v1/cluster/external-weight reconcile the external share-weight
//	                                   sum (cluster router broadcast)
//	GET    /metrics                    Prometheus text exposition
//
// Every endpoint is wrapped in metrics middleware recording per-endpoint
// request counts, error counts and latency histograms into an obs.Registry,
// served at GET /v1/metrics alongside the solver's counters — and, in
// Prometheus text-exposition form, at GET /metrics.
//
// The middleware also assigns every request a trace ID (honoring an
// inbound X-AMF-Trace-Id header, else minting one), returns it in the
// X-AMF-Trace-Id response header, and propagates it through the request
// context into the engine's group commits, where it correlates the
// request with the commit trace recorded at GET /v1/traces.
//
// The server fronts one Backend (NewBackendServer): a serve.Engine, whose
// mutations are batched through its group commit and whose GET
// /v1/allocation is served lock-free from the published snapshot, the
// cluster router, or a read replica. Handlers pass the request context
// to the backend: a client that disconnects or times out while its
// mutation is still queued abandons the commit instead of blocking on
// the batch window.
//
// Errors are returned as {"error": "...", "code": "..."} where code is one
// of the stable constants in this package (invalid_argument → 400,
// not_found → 404, already_exists → 409, unavailable → 503, internal →
// 500 for a response that cannot be encoded). The Go
// client surfaces them as *APIError values matching the Err* sentinels
// under errors.Is.
package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/serve"
)

// TraceHeader is the response (and optional request) header carrying the
// request's trace ID.
const TraceHeader = "X-AMF-Trace-Id"

// ParentHeader is the request header carrying the cluster-level parent
// trace ID: the router mints one per fan-out and shards stamp it on the
// commit traces the request rides in (span.Trace.Parent), so the router's
// GET /v1/traces can stitch shard-local traces under their parent.
const ParentHeader = "X-AMF-Parent-Span"

// Backend is the controller surface the API serves. All mutations and
// reads are context-aware; implementations must return promptly with
// ctx.Err() (or an error wrapping it) once ctx is cancelled. Implemented
// by *serve.Engine (batched mutations, lock-free snapshot reads), the
// cluster router (routed mutations, merged reads) and read replicas
// (mutations rejected, reads from the replayed view).
type Backend interface {
	AddJob(ctx context.Context, id string, weight float64, demand, work []float64) error
	AddJobs(ctx context.Context, specs []scheduler.JobSpec) error
	RemoveJob(ctx context.Context, id string) error
	ReportProgress(ctx context.Context, id string, done []float64) (bool, error)
	UpdateWeight(ctx context.Context, id string, weight float64) error
	Shares(ctx context.Context, id string) ([]float64, error)
	// Allocation returns every job's shares. The map and its rows are
	// read-only: neither the backend nor the caller writes them after
	// return. A later commit publishes a new map and replaces the rows it
	// re-solved with new slices, handing every other row on by pointer;
	// GET /v1/allocation keys its cached row encodings on exactly that.
	Allocation(ctx context.Context) (map[string][]float64, error)
	Stats() scheduler.Stats
	Snapshot() scheduler.Snapshot
	Restore(ctx context.Context, snap scheduler.Snapshot) error

	// ReadyErr is the readiness behind GET /v1/readyz: nil when the
	// backend can take mutations, else the reason it cannot (WAL
	// recovery, replica replay, fail-stop).
	ReadyErr() error
	// SnapshotVersion is the version of the published allocation, a
	// monotonic per-backend sequence the cluster router assembles into
	// its snapshot version vector.
	SnapshotVersion() uint64
	// PolicyName is the wire name of the active fairness policy.
	PolicyName() string
	// Explain derives the water-filling evidence (per-job final level,
	// freeze round, binding sites, floor flags; per-site saturation)
	// behind GET /v1/explain from the published allocation. job ""
	// requests the full explanation; a named job must exist
	// (scheduler.ErrUnknownJob → 404).
	Explain(ctx context.Context, job string) (*serve.ExplainResult, error)
	// RuntimeConfig and ApplyConfig are GET/PATCH /v1/config: the full
	// runtime-tuning document, and a partial update validated in full
	// and applied atomically. The read takes a context (and can fail)
	// because the cluster router fans it out to shards.
	RuntimeConfig(ctx context.Context) (scheduler.RuntimeConfig, error)
	ApplyConfig(ctx context.Context, p scheduler.ConfigPatch) error
}

// ExternalWeighter is the optional cluster-reconciliation surface behind
// PUT /v1/cluster/external-weight: the share-weight sum held by jobs
// outside this backend, folded into Enhanced-AMF equal-share floors. Only
// a shard engine takes it; other backends reject the route with
// invalid_argument.
type ExternalWeighter interface {
	SetExternalWeight(ctx context.Context, w float64) error
}

var _ Backend = (*serve.Engine)(nil)
var _ ExternalWeighter = (*serve.Engine)(nil)

// AddJobRequest registers a job. The server rejects a body with any other
// field (unknown_field).
type AddJobRequest struct {
	ID     string    `json:"id"`
	Weight float64   `json:"weight,omitempty"`
	Demand []float64 `json:"demand"`
	Work   []float64 `json:"work,omitempty"`
}

// spec converts the wire form into the scheduler's job spec.
func (r AddJobRequest) spec() scheduler.JobSpec {
	return scheduler.JobSpec{
		ID: r.ID, Weight: r.Weight,
		Demand: r.Demand, Work: r.Work,
	}
}

// BatchAddRequest registers a set of jobs atomically: either every job is
// added — in one engine commit, with one solve — or none are.
type BatchAddRequest struct {
	Jobs []AddJobRequest `json:"jobs"`
}

// BatchItemResult is one job's outcome in a batch registration. Error and
// Code are empty for jobs that were (or would have been) valid.
type BatchItemResult struct {
	ID    string `json:"id"`
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
}

// BatchAddResponse reports a batch registration. On rejection Added is 0
// and Results pinpoints the offending items.
type BatchAddResponse struct {
	Added   int               `json:"added"`
	Results []BatchItemResult `json:"results"`
}

// ProgressRequest reports completed work per site.
type ProgressRequest struct {
	Done []float64 `json:"done"`
}

// ProgressResponse reports whether the job completed.
type ProgressResponse struct {
	Completed bool `json:"completed"`
}

// SharesResponse carries one job's allocation.
type SharesResponse struct {
	ID        string    `json:"id"`
	Shares    []float64 `json:"shares"`
	Aggregate float64   `json:"aggregate"`
}

// AllocationResponse carries every job's allocation. Version is the
// backend's snapshot version (Backend.SnapshotVersion) — a monotonic
// per-backend sequence the cluster router assembles into its snapshot
// version vector.
type AllocationResponse struct {
	Jobs    map[string]SharesResponse `json:"jobs"`
	Version uint64                    `json:"version,omitempty"`
	// Policy is the wire name of the fairness policy the allocation was
	// solved under.
	Policy string `json:"policy,omitempty"`
}

// ConfigResponse is the GET /v1/config (and PATCH /v1/config response)
// document: the controller's immutable site capacities plus the full
// runtime-tuning state.
type ConfigResponse struct {
	SiteCapacity []float64           `json:"site_capacity"`
	Policy       string              `json:"policy"`
	Solver       SolverConfigSection `json:"solver"`
}

// StatsResponse mirrors scheduler.Stats, plus the active policy name.
type StatsResponse struct {
	Policy            string  `json:"policy,omitempty"`
	Solves            int     `json:"solves"`
	Skipped           int     `json:"skipped"`
	Jobs              int     `json:"jobs"`
	Completed         int     `json:"completed"`
	LastSolveSeconds  float64 `json:"last_solve_seconds"`
	TotalSolveSeconds float64 `json:"total_solve_seconds"`
	LastComponents    int     `json:"last_components"`
	LargestComponent  int     `json:"largest_component"`
	LastSpeedup       float64 `json:"last_speedup"`
	// Incremental-solve telemetry: components reused vs. re-solved by the
	// most recent solve, and the lifetime count of Enhanced-AMF weight-sum
	// changes.
	LastReused          int   `json:"last_reused"`
	LastResolved        int   `json:"last_resolved"`
	GlobalInvalidations int64 `json:"global_invalidations"`
	// Approximate water-filling telemetry from the most recent solve:
	// components routed through the approximate path, and the solver's
	// certified per-job deviation bound (0 when every component was exact).
	ApproxComponents int     `json:"approx_components"`
	ApproxErrorBound float64 `json:"approx_error_bound"`
	// SolveLatency and CommitLatency carry the estimated p50/p95/p99 of
	// the backend's solve and commit latency histograms (nil against a
	// backend without engine instrumentation), so load harnesses read them
	// here instead of re-deriving from /v1/metrics buckets.
	SolveLatency  *LatencyQuantiles `json:"solve_latency,omitempty"`
	CommitLatency *LatencyQuantiles `json:"commit_latency,omitempty"`
}

// LatencyQuantiles is a histogram's estimated quantile summary, in
// seconds, interpolated from its exponential buckets.
type LatencyQuantiles struct {
	Count      int64   `json:"count"`
	P50Seconds float64 `json:"p50_seconds"`
	P95Seconds float64 `json:"p95_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
}

type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// Server wraps a controller backend with the HTTP API.
type Server struct {
	sc         Backend
	capacity   []float64
	mux        *http.ServeMux
	reg        *obs.Registry
	traces     *span.Recorder
	slowTraces *span.SlowRecorder
	alloc      allocBody
}

// NewBackendServer builds the API around a backend: a serving engine, the
// cluster router or a read replica. capacity is echoed by /v1/config
// (backends do not expose it). reg should be the registry the backend
// instruments, so /v1/metrics unifies HTTP and solver telemetry; nil
// creates a fresh one. The policy argument is not consulted: every
// backend reports its live policy (Backend.PolicyName).
func NewBackendServer(be Backend, reg *obs.Registry, capacity []float64, _ policy.Policy) *Server {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		sc:       be,
		capacity: append([]float64(nil), capacity...),
		mux:      http.NewServeMux(),
		reg:      reg,
	}
	s.route("GET /v1/healthz", s.handleHealthz)
	s.route("GET /v1/readyz", s.handleReadyz)
	s.route("GET /v1/config", s.handleConfig)
	s.route("PATCH /v1/config", s.handlePatchConfig)
	s.route("GET /v1/policy", s.handleGetPolicy)
	s.route("POST /v1/jobs", s.handleAddJob)
	s.route("POST /v1/jobs:batch", s.handleAddJobsBatch)
	s.route("DELETE /v1/jobs/{id}", s.handleRemoveJob)
	s.route("POST /v1/jobs/{id}/progress", s.handleProgress)
	s.route("PUT /v1/jobs/{id}/weight", s.handleWeight)
	s.route("GET /v1/jobs/{id}/shares", s.handleShares)
	s.route("GET /v1/allocation", s.handleAllocation)
	s.route("GET /v1/stats", s.handleStats)
	s.route("GET /v1/metrics", s.handleMetrics)
	s.route("GET /v1/traces", s.handleTraces)
	s.route("GET /v1/explain", s.handleExplain)
	s.route("GET /v1/snapshot", s.handleGetSnapshot)
	s.route("PUT /v1/snapshot", s.handlePutSnapshot)
	s.route("PUT /v1/cluster/external-weight", s.handleExternalWeight)
	s.route("GET /metrics", s.handlePromMetrics)
	return s
}

// Handler returns the HTTP handler for mounting.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the registry the server instruments into.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// SetTraces attaches the commit-trace ring served at GET /v1/traces —
// normally the same span.Recorder passed to the engine via
// serve.Config.Traces. Call before serving requests; it returns s for
// chaining. Without it /v1/traces serves an empty list.
func (s *Server) SetTraces(rec *span.Recorder) *Server {
	s.traces = rec
	return s
}

// SetSlowTraces attaches the slow-trace retention ring served at
// GET /v1/traces?slow=1 — normally the same span.SlowRecorder passed to
// the engine via serve.Config.SlowTraces. Returns s for chaining.
// Without it ?slow=1 serves an empty list.
func (s *Server) SetSlowTraces(rec *span.SlowRecorder) *Server {
	s.slowTraces = rec
	return s
}

// route registers a handler wrapped in per-endpoint middleware: request
// and error counters plus a latency histogram keyed by the route pattern,
// and trace-ID assignment — the request's trace ID (inbound header or
// freshly minted) is echoed in the X-AMF-Trace-Id response header and
// propagated through the request context into the backend, where the
// engine stamps it on the commit trace the mutation rides in.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	reqs := s.reg.Counter("http.requests." + pattern)
	errs := s.reg.Counter("http.errors." + pattern)
	lat := s.reg.Histogram("http.latency." + pattern)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := requestTraceID(r)
		w.Header().Set(TraceHeader, string(id))
		ctx := span.NewContext(r.Context(), id)
		if p := r.Header.Get(ParentHeader); p != "" && len(p) <= 64 {
			ctx = span.NewParentContext(ctx, span.ID(p))
		}
		r = r.WithContext(ctx)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		reqs.Inc()
		if sw.status >= 400 {
			errs.Inc()
		}
		lat.Observe(time.Since(start))
	})
}

// requestTraceID returns the request's trace ID: a sane inbound
// X-AMF-Trace-Id value when the client sent one (so callers can stitch
// their own request IDs through), else freshly minted.
func requestTraceID(r *http.Request) span.ID {
	if v := r.Header.Get(TraceHeader); v != "" && len(v) <= 64 {
		return span.ID(v)
	}
	return span.MintID()
}

// statusWriter captures the response status for the metrics middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// WriteJSON encodes v before sending the status, so a value encoding/json
// refuses (a NaN or Inf anywhere in it) answers 500 with an error body
// instead of the intended status with an empty one.
func WriteJSON(w http.ResponseWriter, status int, v interface{}) {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(v); err != nil {
		status = http.StatusInternalServerError
		body.Reset()
		_ = json.NewEncoder(&body).Encode(errorResponse{Error: err.Error(), Code: CodeInternal})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body.Bytes())
}

// WriteError answers err as an errorResponse under the status its stable
// code maps to (CodeFor, StatusFor).
func WriteError(w http.ResponseWriter, err error) {
	code := CodeFor(err)
	WriteJSON(w, StatusFor(code), errorResponse{Error: err.Error(), Code: code})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ReadyResponse reports the backend's readiness. When Status is "unready"
// Error and Code explain why (code is always "unavailable": the condition
// is retryable against a caught-up or restarted backend).
type ReadyResponse struct {
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	Code   string `json:"code,omitempty"`
}

// handleReadyz is readiness, distinct from handleHealthz's liveness: 503
// with the stable "unavailable" code while the backend cannot take
// mutations — WAL recovery or replica replay still in progress, or a WAL
// fail-stop (serve.ErrWALFailed) — and 200 once caught up.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if err := s.sc.ReadyErr(); err != nil {
		WriteJSON(w, http.StatusServiceUnavailable, ReadyResponse{
			Status: "unready", Error: err.Error(), Code: CodeUnavailable,
		})
		return
	}
	WriteJSON(w, http.StatusOK, ReadyResponse{Status: "ready"})
}

// ExternalWeightRequest carries the cluster router's weight-sum broadcast:
// the total share weight of jobs living on other shards.
type ExternalWeightRequest struct {
	Weight float64 `json:"weight"`
}

func (s *Server) handleExternalWeight(w http.ResponseWriter, r *http.Request) {
	ew, ok := s.sc.(ExternalWeighter)
	if !ok {
		WriteJSON(w, http.StatusBadRequest, errorResponse{
			Error: "backend does not support external weight", Code: CodeInvalidArgument})
		return
	}
	var req ExternalWeightRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteError(w, err)
		return
	}
	if err := ew.SetExternalWeight(r.Context(), req.Weight); err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "updated"})
}

// PolicyResponse reports the active fairness policy and the full set of
// valid wire names. The policy is switched through PATCH /v1/config.
type PolicyResponse struct {
	Policy    string   `json:"policy"`
	Available []string `json:"available,omitempty"`
}

func (s *Server) handleGetPolicy(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, PolicyResponse{
		Policy:    s.sc.PolicyName(),
		Available: policy.Names(),
	})
}

func (s *Server) handleAddJob(w http.ResponseWriter, r *http.Request) {
	var req AddJobRequest
	if !decodeStrict(w, r, &req, "job registration") {
		return
	}
	if req.ID == "" {
		WriteJSON(w, http.StatusBadRequest, errorResponse{Error: "job id required", Code: CodeInvalidArgument})
		return
	}
	if err := s.sc.AddJob(r.Context(), req.ID, req.Weight, req.Demand, req.Work); err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusCreated, map[string]string{"id": req.ID})
}

// handleAddJobsBatch registers the whole set atomically through one
// backend commit — with the engine that means exactly one solve and one
// WAL record for the entire batch. On rejection the response still
// carries a per-item report so callers can pinpoint (and fix) the
// offending entries without re-submitting blind.
func (s *Server) handleAddJobsBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchAddRequest
	if !decodeStrict(w, r, &req, "job registration") {
		return
	}
	if len(req.Jobs) == 0 {
		WriteJSON(w, http.StatusBadRequest, errorResponse{Error: "jobs required", Code: CodeInvalidArgument})
		return
	}
	specs := make([]scheduler.JobSpec, len(req.Jobs))
	for i, j := range req.Jobs {
		specs[i] = j.spec()
	}
	err := s.sc.AddJobs(r.Context(), specs)
	resp := BatchAddResponse{Results: make([]BatchItemResult, len(req.Jobs))}
	for i, j := range req.Jobs {
		resp.Results[i] = BatchItemResult{ID: j.ID}
	}
	if err == nil {
		resp.Added = len(req.Jobs)
		WriteJSON(w, http.StatusCreated, resp)
		return
	}
	var be *scheduler.BatchError
	if errors.As(err, &be) && len(be.Errs) == len(resp.Results) {
		for i, ierr := range be.Errs {
			if ierr != nil {
				resp.Results[i].Error = ierr.Error()
				resp.Results[i].Code = CodeFor(ierr)
			}
		}
		code := CodeFor(err)
		WriteJSON(w, StatusFor(code), struct {
			errorResponse
			BatchAddResponse
		}{
			errorResponse{Error: err.Error(), Code: code},
			resp,
		})
		return
	}
	WriteError(w, err)
}

func (s *Server) handleRemoveJob(w http.ResponseWriter, r *http.Request) {
	if err := s.sc.RemoveJob(r.Context(), r.PathValue("id")); err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "removed"})
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	var req ProgressRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteError(w, err)
		return
	}
	done, err := s.sc.ReportProgress(r.Context(), r.PathValue("id"), req.Done)
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, ProgressResponse{Completed: done})
}

// WeightRequest updates a job's weight.
type WeightRequest struct {
	Weight float64 `json:"weight"`
}

func (s *Server) handleWeight(w http.ResponseWriter, r *http.Request) {
	var req WeightRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteError(w, err)
		return
	}
	if err := s.sc.UpdateWeight(r.Context(), r.PathValue("id"), req.Weight); err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "updated"})
}

func (s *Server) handleShares(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	shares, err := s.sc.Shares(r.Context(), id)
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, sharesResponse(id, shares))
}

func sharesResponse(id string, shares []float64) SharesResponse {
	var agg float64
	for _, v := range shares {
		agg += v
	}
	return SharesResponse{ID: id, Shares: shares, Aggregate: agg}
}

func (s *Server) handleAllocation(w http.ResponseWriter, r *http.Request) {
	alloc, err := s.sc.Allocation(r.Context())
	if err != nil {
		WriteError(w, err)
		return
	}
	frags, err := s.alloc.fragments(alloc)
	if err != nil {
		WriteJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error(), Code: CodeInternal})
		return
	}
	// Read after the allocation: the version is at or after the map, so a
	// reader polling for "version >= X" never sees stale data.
	writeAllocation(w, frags, s.sc.SnapshotVersion(), s.sc.PolicyName())
}

func (s *Server) handleGetSnapshot(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, s.sc.Snapshot())
}

func (s *Server) handlePutSnapshot(w http.ResponseWriter, r *http.Request) {
	var snap scheduler.Snapshot
	if err := json.NewDecoder(r.Body).Decode(&snap); err != nil {
		WriteError(w, err)
		return
	}
	if err := s.sc.Restore(r.Context(), snap); err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "restored"})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.sc.Stats()
	snap := s.reg.Snapshot()
	WriteJSON(w, http.StatusOK, StatsResponse{
		Policy: s.sc.PolicyName(),
		Solves: st.Solves, Skipped: st.Skipped, Jobs: st.Jobs, Completed: st.Completed,
		LastSolveSeconds:    st.LastSolve.Seconds(),
		TotalSolveSeconds:   st.TotalSolveTime.Seconds(),
		LastComponents:      st.LastComponents,
		LargestComponent:    st.LastLargestComponent,
		LastSpeedup:         st.LastSpeedup,
		LastReused:          st.LastReused,
		LastResolved:        st.LastResolved,
		GlobalInvalidations: st.GlobalInvalidations,
		ApproxComponents:    st.LastApproxComponents,
		ApproxErrorBound:    st.LastApproxErrorBound,
		SolveLatency:        latencyQuantiles(snap, "engine.solve_latency"),
		CommitLatency:       latencyQuantiles(snap, "engine.commit_latency"),
	})
}

// latencyQuantiles summarizes one of the engine's latency histograms for
// /v1/stats, or nil when the backend never recorded it (router, replica)
// — looked up through the snapshot so reading stats does not
// create empty histograms in the registry.
func latencyQuantiles(snap obs.Snapshot, name string) *LatencyQuantiles {
	h, ok := snap.Histograms[name]
	if !ok || h.Count == 0 {
		return nil
	}
	return &LatencyQuantiles{
		Count:      h.Count,
		P50Seconds: h.P50,
		P95Seconds: h.P95,
		P99Seconds: h.P99,
	}
}

// TracesResponse carries the most recent commit traces, newest first —
// or, with ?slow=1, the slow-trace retention ring's contents slowest
// first.
type TracesResponse struct {
	// Capacity is the trace ring's size (0 when tracing is disabled).
	Capacity int `json:"capacity"`
	// Slow marks a slow-retention read: Traces came from the slow ring
	// and are ordered slowest first.
	Slow bool `json:"slow,omitempty"`
	// Traces are the recorded commit traces, newest first (slowest first
	// when Slow).
	Traces []*span.Trace `json:"traces"`
}

// handleTraces serves the recent commit traces: GET /v1/traces?limit=N
// returns up to N newest-first (the whole ring when limit is absent).
// ?slow=1 switches to the slow-trace retention ring — the N slowest
// commits inside the retention window, slowest first (see SetSlowTraces).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	resp := TracesResponse{Traces: []*span.Trace{}}
	q := r.URL.Query()
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			WriteJSON(w, http.StatusBadRequest, errorResponse{
				Error: "limit must be a non-negative integer", Code: CodeInvalidArgument})
			return
		}
		limit = n
	}
	if v := q.Get("slow"); v == "1" || v == "true" {
		resp.Slow = true
		resp.Capacity = s.slowTraces.Cap()
		resp.Traces = s.slowTraces.Slowest(limit)
		WriteJSON(w, http.StatusOK, resp)
		return
	}
	if s.traces != nil {
		resp.Capacity = s.traces.Cap()
		resp.Traces = s.traces.Recent(limit)
	}
	WriteJSON(w, http.StatusOK, resp)
}

// ExplainResponse is the GET /v1/explain document: the water-filling
// evidence behind the backend's published allocation. With ?job=<name>
// only that job's row is returned (Job set, Jobs/Sites empty); without it
// the full per-job and per-site explanation is dumped.
type ExplainResponse struct {
	// Version is the allocation snapshot version the explanation was
	// derived from.
	Version uint64 `json:"version,omitempty"`
	// Policy is the fairness policy the allocation was solved under.
	Policy string `json:"policy,omitempty"`
	// Shard labels which cluster member answered ("" standalone, a shard
	// index when routed, "replica" from a read replica).
	Shard string `json:"shard,omitempty"`
	// Scale, Tol and SatTol echo the explanation's tolerances so callers
	// can reproduce the saturation and level judgments.
	Scale  float64 `json:"scale"`
	Tol    float64 `json:"tol"`
	SatTol float64 `json:"sat_tol"`
	// Job is the single requested job's explanation (?job=<name>).
	Job *core.JobExplanation `json:"job,omitempty"`
	// Jobs and Sites are the full dump (no ?job filter).
	Jobs  []core.JobExplanation  `json:"jobs,omitempty"`
	Sites []core.SiteExplanation `json:"sites,omitempty"`
}

// handleExplain serves the allocation explainability surface:
// GET /v1/explain dumps the full water-filling evidence,
// GET /v1/explain?job=<name> one job's row (404 for unknown jobs).
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	job := r.URL.Query().Get("job")
	res, err := s.sc.Explain(r.Context(), job)
	if err != nil {
		WriteError(w, err)
		return
	}
	resp := ExplainResponse{
		Version: res.Version,
		Policy:  res.Policy,
		Shard:   res.Shard,
		Scale:   res.Explanation.Scale,
		Tol:     res.Explanation.Tol,
		SatTol:  res.Explanation.SatTol,
	}
	if job != "" {
		resp.Job = res.Explanation.JobByName(job)
		if resp.Job == nil {
			// The backend validated existence; a nil row here means the job
			// vanished between validation and derivation — treat as unknown.
			WriteError(w, fmt.Errorf("%w: %q", scheduler.ErrUnknownJob, job))
			return
		}
	} else {
		resp.Jobs = res.Explanation.Jobs
		resp.Sites = res.Explanation.Sites
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handlePromMetrics serves the registry in Prometheus text exposition
// format — the scrape target. The JSON twin stays at /v1/metrics.
func (s *Server) handlePromMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mirrorSchedulerGauges()
	w.Header().Set("Content-Type", obs.PromContentType)
	_ = s.reg.WritePrometheus(w)
}

// handleMetrics serves the registry snapshot. Scheduler counters are
// mirrored into gauges right before snapshotting, so /v1/metrics and
// /v1/stats always report the same solver numbers.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mirrorSchedulerGauges()
	WriteJSON(w, http.StatusOK, s.reg.Snapshot())
}

// mirrorSchedulerGauges copies the controller's counters into gauges so
// both metrics surfaces (/v1/metrics JSON and /metrics Prometheus) report
// the same solver numbers as /v1/stats.
func (s *Server) mirrorSchedulerGauges() {
	st := s.sc.Stats()
	s.reg.Gauge("scheduler.solves").Set(float64(st.Solves))
	s.reg.Gauge("scheduler.skipped").Set(float64(st.Skipped))
	s.reg.Gauge("scheduler.jobs").Set(float64(st.Jobs))
	s.reg.Gauge("scheduler.completed").Set(float64(st.Completed))
	s.reg.Gauge("scheduler.last_solve_seconds").Set(st.LastSolve.Seconds())
	s.reg.Gauge("scheduler.total_solve_seconds").Set(st.TotalSolveTime.Seconds())
	s.reg.Gauge("scheduler.last_components").Set(float64(st.LastComponents))
	s.reg.Gauge("scheduler.largest_component").Set(float64(st.LastLargestComponent))
	s.reg.Gauge("scheduler.last_speedup").Set(st.LastSpeedup)
	s.reg.Gauge("scheduler.last_reused").Set(float64(st.LastReused))
	s.reg.Gauge("scheduler.last_resolved").Set(float64(st.LastResolved))
	s.reg.Gauge("scheduler.global_invalidations").Set(float64(st.GlobalInvalidations))
	s.reg.Gauge("scheduler.approx_components").Set(float64(st.LastApproxComponents))
	s.reg.Gauge("scheduler.approx_error_bound").Set(st.LastApproxErrorBound)
}
