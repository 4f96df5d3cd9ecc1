package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Op; Parent is the span that caused this one, -1 for a root.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Op      int64  `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// tracer records spans from the benchmark's own code only, at the seams
// the product already has: the client call, an http.Handler around the
// API, and wrappers around the api.Backend and cluster.Shard interfaces.
// Spans stay in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	class map[int64]opClass // request → class, from the client span
	// Counted by the API handler wrapper.
	apiErrors  int
	allocBytes []int // body size of each GET /v1/allocation reply
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), class: map[int64]opClass{}}
}

// begin opens a span and returns its id and the func that closes it.
func (t *tracer) begin(op, parent int64, name string) (int64, func()) {
	t.mu.Lock()
	id := int64(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNS: int64(time.Since(t.epoch))})
	t.mu.Unlock()
	return id, func() {
		now := int64(time.Since(t.epoch))
		t.mu.Lock()
		t.spans[id].EndNS = now
		t.mu.Unlock()
	}
}

// count is the number of spans opened so far.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// beginClient opens the root span of request op and notes its class.
func (t *tracer) beginClient(op int64, c opClass) (int64, func()) {
	t.mu.Lock()
	t.class[op] = c
	t.mu.Unlock()
	return t.begin(op, -1, "client")
}

// traceCtx rides the request context from the API wrapper down to the
// backend and shard wrappers.
type traceCtx struct{ op, span int64 }

type traceKey struct{}

// start opens a child of the span in ctx. Calls that belong to no traced
// request (set-up, the correctness gate) pass through unrecorded.
func (t *tracer) start(ctx context.Context, name string) (context.Context, func()) {
	tc, ok := ctx.Value(traceKey{}).(traceCtx)
	if !ok {
		return ctx, func() {}
	}
	id, end := t.begin(tc.op, tc.span, name)
	return context.WithValue(ctx, traceKey{}, traceCtx{tc.op, id}), end
}

type countingWriter struct {
	http.ResponseWriter
	status, bytes int
}

func (w *countingWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// handler wraps the API's http.Handler: one "api" span per traced
// request, plus the error and reply-size counts.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, err1 := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		parent, err2 := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if err1 != nil || err2 != nil {
			next.ServeHTTP(w, r)
			return
		}
		id, end := t.begin(op, parent, "api")
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		ctx := context.WithValue(r.Context(), traceKey{}, traceCtx{op, id})
		next.ServeHTTP(cw, r.WithContext(ctx))
		end()
		t.mu.Lock()
		if cw.status >= 400 {
			t.apiErrors++
		}
		if r.URL.Path == "/v1/allocation" {
			t.allocBytes = append(t.allocBytes, cw.bytes)
		}
		t.mu.Unlock()
	})
}

// tracedEngine puts a span around each engine call the request stream
// makes. Embedding keeps every optional interface the handlers probe.
type tracedEngine struct {
	*serve.Engine
	t *tracer
}

func (e tracedEngine) AddJob(ctx context.Context, id string, weight float64, demand, work []float64) error {
	_, end := e.t.start(ctx, "serve.write")
	defer end()
	return e.Engine.AddJob(ctx, id, weight, demand, work)
}

func (e tracedEngine) RemoveJob(ctx context.Context, id string) error {
	_, end := e.t.start(ctx, "serve.write")
	defer end()
	return e.Engine.RemoveJob(ctx, id)
}

func (e tracedEngine) UpdateWeight(ctx context.Context, id string, weight float64) error {
	_, end := e.t.start(ctx, "serve.write")
	defer end()
	return e.Engine.UpdateWeight(ctx, id, weight)
}

func (e tracedEngine) ReportProgress(ctx context.Context, id string, done []float64) (bool, error) {
	_, end := e.t.start(ctx, "serve.write")
	defer end()
	return e.Engine.ReportProgress(ctx, id, done)
}

func (e tracedEngine) Shares(ctx context.Context, id string) ([]float64, error) {
	_, end := e.t.start(ctx, "serve.shares")
	defer end()
	return e.Engine.Shares(ctx, id)
}

func (e tracedEngine) Allocation(ctx context.Context) (map[string][]float64, error) {
	_, end := e.t.start(ctx, "serve.allocation")
	defer end()
	return e.Engine.Allocation(ctx)
}

// tracedRouter does the same for the cluster router; the context it hands
// down makes the shard spans its children.
type tracedRouter struct {
	*cluster.Router
	t *tracer
}

func (r tracedRouter) AddJob(ctx context.Context, id string, weight float64, demand, work []float64) error {
	ctx, end := r.t.start(ctx, "cluster.write")
	defer end()
	return r.Router.AddJob(ctx, id, weight, demand, work)
}

func (r tracedRouter) RemoveJob(ctx context.Context, id string) error {
	ctx, end := r.t.start(ctx, "cluster.write")
	defer end()
	return r.Router.RemoveJob(ctx, id)
}

func (r tracedRouter) UpdateWeight(ctx context.Context, id string, weight float64) error {
	ctx, end := r.t.start(ctx, "cluster.write")
	defer end()
	return r.Router.UpdateWeight(ctx, id, weight)
}

func (r tracedRouter) ReportProgress(ctx context.Context, id string, done []float64) (bool, error) {
	ctx, end := r.t.start(ctx, "cluster.write")
	defer end()
	return r.Router.ReportProgress(ctx, id, done)
}

func (r tracedRouter) Shares(ctx context.Context, id string) ([]float64, error) {
	ctx, end := r.t.start(ctx, "cluster.shares")
	defer end()
	return r.Router.Shares(ctx, id)
}

func (r tracedRouter) Allocation(ctx context.Context) (map[string][]float64, error) {
	ctx, end := r.t.start(ctx, "cluster.allocation")
	defer end()
	return r.Router.Allocation(ctx)
}

// tracedShard wraps one cluster.Shard as the router sees it.
type tracedShard struct {
	cluster.Shard
	t *tracer
}

func (s tracedShard) AddJob(ctx context.Context, id string, weight float64, demand, work []float64) error {
	_, end := s.t.start(ctx, "serve.write")
	defer end()
	return s.Shard.AddJob(ctx, id, weight, demand, work)
}

func (s tracedShard) RemoveJob(ctx context.Context, id string) error {
	_, end := s.t.start(ctx, "serve.write")
	defer end()
	return s.Shard.RemoveJob(ctx, id)
}

func (s tracedShard) UpdateWeight(ctx context.Context, id string, weight float64) error {
	_, end := s.t.start(ctx, "serve.write")
	defer end()
	return s.Shard.UpdateWeight(ctx, id, weight)
}

func (s tracedShard) ReportProgress(ctx context.Context, id string, done []float64) (bool, error) {
	_, end := s.t.start(ctx, "serve.write")
	defer end()
	return s.Shard.ReportProgress(ctx, id, done)
}

func (s tracedShard) Shares(ctx context.Context, id string) ([]float64, error) {
	_, end := s.t.start(ctx, "serve.shares")
	defer end()
	return s.Shard.Shares(ctx, id)
}

func (s tracedShard) Allocation(ctx context.Context) (map[string][]float64, uint64, error) {
	_, end := s.t.start(ctx, "serve.allocation")
	defer end()
	return s.Shard.Allocation(ctx)
}

func (s tracedShard) SetExternalWeight(ctx context.Context, w float64) error {
	_, end := s.t.start(ctx, "serve.broadcast")
	defer end()
	return s.Shard.SetExternalWeight(ctx, w)
}

// selfTimes returns, per span, its duration minus the part of that
// interval its children cover. Children that overlap each other (a
// fan-out) are counted once; a child is clipped to its parent.
func selfTimes(spans []span) []int64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return ch[a].StartNS < ch[b].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, c := range ch {
			lo, hi := max(c.StartNS, edge), min(c.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerMetrics turns the spans of the traced phase into the span-derived
// per-layer metrics. wall is the length of that phase.
func layerMetrics(m map[string]float64, t *tracer, spans []span, wall time.Duration) {
	self := selfTimes(spans)
	selfBy := map[string][]float64{}   // "layer.class" → self times, µs
	durBy := map[string][]float64{}    // span name → durations, µs
	var clientBy [numClasses][]float64 // class → client span durations, µs
	var apiBusy int64
	slowest := map[int64]int64{} // cluster.allocation span → slowest child
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for i, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		key := layer + "." + classNames[t.class[s.Op]]
		selfBy[key] = append(selfBy[key], float64(self[i])/1e3)
		selfBy[layer] = append(selfBy[layer], float64(self[i])/1e3)
		durBy[s.Name] = append(durBy[s.Name], float64(s.dur())/1e3)
		if s.Name == "client" {
			clientBy[t.class[s.Op]] = append(clientBy[t.class[s.Op]], float64(s.dur())/1e3)
		}
		if s.Name == "api" {
			apiBusy += s.dur()
		}
		if p, ok := byID[s.Parent]; ok && p.Name == "cluster.allocation" {
			slowest[p.ID] = max(slowest[p.ID], s.dur())
		}
	}
	p := func(v []float64, q float64) float64 { return percentile(sortedCopy(v), q) }
	m["client.self_us_p50"] = p(selfBy["client"], 0.5)
	// The whole request as the client saw it, far into the tail: what the
	// end-to-end metrics cannot gate (README.md), kept on record here.
	m["client.write_us_p99"] = p(clientBy[classWrite], 0.99)
	m["client.shares_us_p99"] = p(clientBy[classPoint], 0.99)
	for _, c := range classNames {
		m["api.self_us_p50."+c] = p(selfBy["api."+c], 0.5)
	}
	m["api.busy_share"] = float64(apiBusy) / float64(int64(wall)*connections)
	m["api.errors"] = float64(t.apiErrors)
	m["cluster.self_us_p50.write"] = p(selfBy["cluster.write"], 0.5)
	m["cluster.self_us_p50.allocation"] = p(selfBy["cluster.allocation"], 0.5)
	m["serve.write_us_p50"] = p(durBy["serve.write"], 0.5)
	m["serve.write_us_p99"] = p(durBy["serve.write"], 0.99)
	m["serve.shares_us_p50"] = p(durBy["serve.shares"], 0.5)
	m["serve.allocation_us_p50"] = p(durBy["serve.allocation"], 0.5)
	m["serve.broadcast_us_p50"] = p(durBy["serve.broadcast"], 0.5)

	clusterSpans := len(selfBy["cluster"])
	m["cluster.shard_calls_per_op"] = ratio(float64(len(selfBy["serve"])), float64(clusterSpans))
	m["cluster.broadcasts_per_write"] = ratio(float64(len(durBy["serve.broadcast"])), float64(len(durBy["cluster.write"])))
	var slow []float64
	for _, d := range slowest {
		slow = append(slow, float64(d)/1e3)
	}
	m["cluster.fanout_slowest_us_p50"] = p(slow, 0.5)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// writeTrace stores spans as bench/out/trace-<workload>.json.
func writeTrace(path, workload string, seed uint64, spans []span) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
