package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/policy"
)

// VersionsResponse is the cluster-wide snapshot version vector — one
// monotonic snapshot version per shard, as observed by the most recent
// merged allocation read — plus its scalar sum (the value /v1/allocation
// reports as "version").
type VersionsResponse struct {
	Shards   int      `json:"shards"`
	Versions []uint64 `json:"versions"`
	Sum      uint64   `json:"sum"`
}

// RouterStatsResponse is the wire form of RouterStats.
type RouterStatsResponse struct {
	Jobs              int     `json:"jobs"`
	OwnedSites        int     `json:"owned_sites"`
	WeightSum         float64 `json:"weight_sum"`
	BroadcastVersion  uint64  `json:"broadcast_version"`
	Broadcasts        int64   `json:"broadcasts"`
	FastPathSkips     int64   `json:"fast_path_skips"`
	CrossShardRejects int64   `json:"cross_shard_rejects"`
}

// NewHandler mounts the full cluster control plane for a router: the
// standard /v1 API (api.NewBackendServer over the router — merged
// allocations with the cluster version, merged stats, readiness across
// every shard, /v1/explain routed to the owning shard) plus the
// cluster-specific routes:
//
//	GET /v1/traces            the stitched trace forest: router-level
//	                          parent traces with the shards' commit
//	                          traces hanging under them, newest first
//	                          (?limit=N); ?slow=1 reads the shards'
//	                          slow-trace retention rings instead,
//	                          slowest first
//	GET /metrics              ONE federated Prometheus page: every
//	                          shard's (and registered replica's) scrape
//	                          relabeled with shard="i"/replica="i",
//	                          plus the router's own fan-out telemetry
//	GET /v1/cluster/versions  the snapshot version vector
//	GET /v1/cluster/stats     routing and weight-broadcast counters
//
// The router's fan-out instrumentation and parent-trace ring are wired
// into reg and a fresh ring here (SetMetrics/SetTraces) unless the caller
// attached its own ring beforehand.
func NewHandler(r *Router, reg *obs.Registry, capacity []float64, pol policy.Policy) http.Handler {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	r.SetMetrics(reg)
	if r.traces == nil {
		r.SetTraces(span.NewRecorder(256))
	}
	srv := api.NewBackendServer(r, reg, capacity, pol)
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("GET /v1/traces", func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		limit := 0
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				writeJSON(w, http.StatusBadRequest, map[string]string{
					"error": "limit must be a non-negative integer", "code": api.CodeInvalidArgument})
				return
			}
			limit = n
		}
		slow := q.Get("slow") == "1" || q.Get("slow") == "true"
		var traces []*span.Trace
		var err error
		if slow {
			traces, err = r.SlowTraces(req.Context(), limit)
		} else {
			traces, err = r.Traces(req.Context(), limit)
		}
		if err != nil {
			code := api.CodeFor(err)
			writeJSON(w, api.StatusFor(code), map[string]string{"error": err.Error(), "code": code})
			return
		}
		if traces == nil {
			traces = []*span.Trace{}
		}
		writeJSON(w, http.StatusOK, api.TracesResponse{Slow: slow, Traces: traces})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", obs.PromContentType)
		_ = r.WriteFederatedMetrics(req.Context(), w)
	})
	mux.HandleFunc("GET /v1/cluster/versions", func(w http.ResponseWriter, req *http.Request) {
		vec := r.VersionVector()
		var sum uint64
		for _, v := range vec {
			sum += v
		}
		writeJSON(w, http.StatusOK, VersionsResponse{Shards: r.NumShards(), Versions: vec, Sum: sum})
	})
	mux.HandleFunc("GET /v1/cluster/stats", func(w http.ResponseWriter, req *http.Request) {
		st := r.RouterStats()
		writeJSON(w, http.StatusOK, RouterStatsResponse{
			Jobs:              st.Jobs,
			OwnedSites:        st.OwnedSites,
			WeightSum:         st.WeightSum,
			BroadcastVersion:  st.BroadcastVersion,
			Broadcasts:        st.Broadcasts,
			FastPathSkips:     st.FastPathSkips,
			CrossShardRejects: st.CrossShardRejects,
		})
	})
	return mux
}

// writeJSON encodes v before sending the status, so a value encoding/json
// refuses (a NaN or Inf anywhere in it) answers 500 with an error body
// instead of the intended status with an empty one.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(v); err != nil {
		status = http.StatusInternalServerError
		body.Reset()
		_ = json.NewEncoder(&body).Encode(map[string]string{"error": err.Error(), "code": api.CodeInternal})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body.Bytes())
}
