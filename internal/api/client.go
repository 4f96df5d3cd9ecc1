package api

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/scheduler"
)

// Client is a typed client for the control-plane API. Every call takes a
// context: cancellation aborts the HTTP request, which server-side
// abandons a still-queued mutation instead of blocking on the engine's
// batch window.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient targets a server at base (e.g. "http://127.0.0.1:8080").
// httpClient may be nil for http.DefaultClient.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: httpClient}
}

// do runs one request. On a non-2xx response it returns an *APIError
// carrying the server's stable code; when out is non-nil it additionally
// tries to decode the error body into out, so endpoints whose failures
// carry structure (e.g. the batch registration's per-item report) still
// deliver it.
func (c *Client) do(ctx context.Context, method, path string, in, out interface{}) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate tracing identity from the context: the request trace ID
	// (so a router's fan-out legs correlate with its own request) and the
	// cluster-level parent span ID (so the shard stamps its commit trace
	// with the router's parent for stitching).
	if id := span.FromContext(ctx); id != "" {
		req.Header.Set(TraceHeader, string(id))
	}
	if p := span.ParentFromContext(ctx); p != "" {
		req.Header.Set(ParentHeader, string(p))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		data, _ := io.ReadAll(resp.Body)
		var er errorResponse
		msg := resp.Status
		if json.Unmarshal(data, &er) == nil && er.Error != "" {
			msg = er.Error
		}
		if out != nil {
			_ = json.Unmarshal(data, out)
		}
		return &APIError{StatusCode: resp.StatusCode, Code: er.Code, Message: msg}
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// Healthz checks liveness.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/v1/healthz", nil, nil)
}

// Readyz checks readiness. A nil error means the backend can take
// mutations; an *APIError with CodeUnavailable means WAL recovery or
// replica replay is still running, or the WAL fail-stopped.
func (c *Client) Readyz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/v1/readyz", nil, nil)
}

// SetExternalWeight reconciles the backend's external share-weight sum —
// the cluster router's weight broadcast.
func (c *Client) SetExternalWeight(ctx context.Context, weight float64) error {
	return c.do(ctx, http.MethodPut, "/v1/cluster/external-weight",
		ExternalWeightRequest{Weight: weight}, nil)
}

// Traces fetches up to limit recent commit traces (0 = the whole ring).
func (c *Client) Traces(ctx context.Context, limit int) (TracesResponse, error) {
	var out TracesResponse
	path := "/v1/traces"
	if limit > 0 {
		path += "?limit=" + strconv.Itoa(limit)
	}
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// SlowTraces fetches up to limit traces from the slow-trace retention
// ring (GET /v1/traces?slow=1), slowest first. 0 = everything retained.
func (c *Client) SlowTraces(ctx context.Context, limit int) (TracesResponse, error) {
	var out TracesResponse
	path := "/v1/traces?slow=1"
	if limit > 0 {
		path += "&limit=" + strconv.Itoa(limit)
	}
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// Explain fetches the allocation explanation. job "" requests the full
// per-job and per-site dump; a named job returns only that job's row
// (ErrUnknownJob for jobs the backend does not know).
func (c *Client) Explain(ctx context.Context, job string) (ExplainResponse, error) {
	var out ExplainResponse
	path := "/v1/explain"
	if job != "" {
		path += "?job=" + url.QueryEscape(job)
	}
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// ScrapeMetrics fetches the raw Prometheus text exposition from
// GET /metrics — the cluster router's federation input.
func (c *Client) ScrapeMetrics(ctx context.Context) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, &APIError{StatusCode: resp.StatusCode, Message: resp.Status}
	}
	return io.ReadAll(resp.Body)
}

// Policy fetches the active fairness policy and the valid wire names.
func (c *Client) Policy(ctx context.Context) (PolicyResponse, error) {
	var out PolicyResponse
	err := c.do(ctx, http.MethodGet, "/v1/policy", nil, &out)
	return out, err
}

// Config fetches the runtime-tuning document (site capacities, policy,
// solver knobs).
func (c *Client) Config(ctx context.Context) (ConfigResponse, error) {
	var out ConfigResponse
	err := c.do(ctx, http.MethodGet, "/v1/config", nil, &out)
	return out, err
}

// SetConfig applies a partial runtime-tuning update (PATCH /v1/config) —
// a policy switch is a patch carrying only Policy — and returns the
// resulting document. A rejected patch surfaces as an
// *APIError; decode the response body's "fields" list (ConfigPatchError)
// for the per-field breakdown via SetConfigDetailed.
func (c *Client) SetConfig(ctx context.Context, patch ConfigPatchRequest) (ConfigResponse, error) {
	var out ConfigResponse
	err := c.do(ctx, http.MethodPatch, "/v1/config", patch, &out)
	return out, err
}

// SetConfigDetailed is SetConfig keeping the per-field validation
// breakdown: on a validation rejection the returned ConfigPatchError
// lists every offending field with its stable code.
func (c *Client) SetConfigDetailed(ctx context.Context, patch ConfigPatchRequest) (ConfigResponse, *ConfigPatchError, error) {
	var out struct {
		ConfigResponse
		ConfigPatchError
	}
	err := c.do(ctx, http.MethodPatch, "/v1/config", patch, &out)
	if err != nil && len(out.Fields) > 0 {
		return ConfigResponse{}, &out.ConfigPatchError, err
	}
	return out.ConfigResponse, nil, err
}

// AddJob registers a job.
func (c *Client) AddJob(ctx context.Context, req AddJobRequest) error {
	return c.do(ctx, http.MethodPost, "/v1/jobs", req, nil)
}

// AddJobs registers a set of jobs atomically in one controller commit:
// one solve for the whole batch, all-or-nothing. The response's Results
// are index-aligned with jobs and, on rejection, pinpoint the invalid
// items (err will match ErrAlreadyExists or ErrInvalidArgument).
func (c *Client) AddJobs(ctx context.Context, jobs []AddJobRequest) (BatchAddResponse, error) {
	var out BatchAddResponse
	err := c.do(ctx, http.MethodPost, "/v1/jobs:batch", BatchAddRequest{Jobs: jobs}, &out)
	return out, err
}

// RemoveJob cancels a job.
func (c *Client) RemoveJob(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, nil)
}

// UpdateWeight changes a job's share weight at runtime.
func (c *Client) UpdateWeight(ctx context.Context, id string, weight float64) error {
	return c.do(ctx, http.MethodPut, "/v1/jobs/"+id+"/weight", WeightRequest{Weight: weight}, nil)
}

// ReportProgress reports completed work; it returns whether the job
// finished.
func (c *Client) ReportProgress(ctx context.Context, id string, done []float64) (bool, error) {
	var out ProgressResponse
	err := c.do(ctx, http.MethodPost, "/v1/jobs/"+id+"/progress",
		ProgressRequest{Done: done}, &out)
	return out.Completed, err
}

// Shares fetches one job's current allocation.
func (c *Client) Shares(ctx context.Context, id string) (SharesResponse, error) {
	var out SharesResponse
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/shares", nil, &out)
	return out, err
}

// Allocation fetches every job's allocation.
func (c *Client) Allocation(ctx context.Context) (AllocationResponse, error) {
	var out AllocationResponse
	err := c.do(ctx, http.MethodGet, "/v1/allocation", nil, &out)
	return out, err
}

// Stats fetches controller counters.
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	var out StatsResponse
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out)
	return out, err
}

// Metrics fetches the server's metrics registry snapshot.
func (c *Client) Metrics(ctx context.Context) (obs.Snapshot, error) {
	var out obs.Snapshot
	err := c.do(ctx, http.MethodGet, "/v1/metrics", nil, &out)
	return out, err
}

// Snapshot downloads the controller's job-set state.
func (c *Client) Snapshot(ctx context.Context) (scheduler.Snapshot, error) {
	var out scheduler.Snapshot
	err := c.do(ctx, http.MethodGet, "/v1/snapshot", nil, &out)
	return out, err
}

// RestoreSnapshot replaces the controller's job set.
func (c *Client) RestoreSnapshot(ctx context.Context, snap scheduler.Snapshot) error {
	return c.do(ctx, http.MethodPut, "/v1/snapshot", snap, nil)
}
