package cluster

import (
	"errors"
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
				api.WriteError(w, errors.New("limit must be a non-negative integer"))
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
			api.WriteError(w, err)
			return
		}
		if traces == nil {
			traces = []*span.Trace{}
		}
		api.WriteJSON(w, http.StatusOK, api.TracesResponse{Slow: slow, Traces: traces})
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
		api.WriteJSON(w, http.StatusOK, VersionsResponse{Shards: r.NumShards(), Versions: vec, Sum: sum})
	})
	mux.HandleFunc("GET /v1/cluster/stats", func(w http.ResponseWriter, req *http.Request) {
		st := r.RouterStats()
		api.WriteJSON(w, http.StatusOK, RouterStatsResponse{
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
