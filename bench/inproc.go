package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/obs"
	obsspan "repro/internal/obs/span"
	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/wal"
)

// stack is amf-server assembled in this process the way cmd/amf-server
// does it (runSingle / runCluster with default flags), so that spans can
// be recorded at its interface seams without touching the product.
type stack struct {
	url     string
	hs      *http.Server
	engines []*serve.Engine
	regs    []*obs.Registry // one per engine, what /v1/metrics would export
}

// The defaults of the cmd/amf-server flags the benchmark leaves alone.
const (
	defaultBatchMax     = 256
	defaultCompactBytes = 4 << 20
	defaultCompactIval  = time.Minute
	defaultTraceBuf     = 256
	defaultSlowTraceBuf = 32
	defaultSlowTraceWin = 10 * time.Minute
)

// buildEngine is cmd/amf-server's buildShardEngine: scheduler, WAL
// replay, commit tracing, engine.
func buildEngine(caps []float64, pol policy.Policy, dir string) (*serve.Engine, *obsspan.Recorder, *obsspan.SlowRecorder, *obs.Registry, error) {
	sc, err := scheduler.New(scheduler.Config{SiteCapacity: caps, Policy: pol})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	var log *wal.Log
	if dir != "" {
		l, recovery, err := wal.Open(dir, wal.Options{})
		if err != nil {
			return nil, nil, nil, nil, err
		}
		if _, err := recovery.Replay(sc); err != nil {
			return nil, nil, nil, nil, err
		}
		log = l
	}
	traces := obsspan.NewRecorder(defaultTraceBuf)
	slow := obsspan.NewSlowRecorder(defaultSlowTraceBuf, defaultSlowTraceWin)
	reg := obs.NewRegistry()
	eng, err := serve.New(sc, serve.Config{
		MaxBatch:        defaultBatchMax,
		Metrics:         reg,
		Log:             log,
		CompactBytes:    defaultCompactBytes,
		CompactInterval: defaultCompactIval,
		Traces:          traces,
		SlowTraces:      slow,
	})
	return eng, traces, slow, reg, err
}

// startStack assembles and serves the workload's topology on a loopback
// port. With tr == nil nothing is wrapped: the same stack, untraced.
func startStack(w workloadSpec, caps []float64, dataDir string, tr *tracer) (*stack, error) {
	pol, err := policy.ForName(w.Policy)
	if err != nil {
		return nil, err
	}
	st := &stack{}
	var handler http.Handler
	if w.Shards > 1 {
		shards := make([]cluster.Shard, w.Shards)
		for i := range shards {
			dir := ""
			if w.WAL {
				dir = filepath.Join(dataDir, fmt.Sprintf("shard-%d", i))
			}
			eng, traces, slow, reg, err := buildEngine(caps, pol, dir)
			if err != nil {
				return nil, err
			}
			st.engines = append(st.engines, eng)
			st.regs = append(st.regs, reg)
			shards[i] = cluster.EngineShard{Eng: eng, Rec: traces, Slow: slow, Reg: reg}
			if tr != nil {
				shards[i] = tracedShard{shards[i], tr}
			}
		}
		router, err := cluster.NewRouter(shards, pol)
		if err != nil {
			return nil, err
		}
		if err := router.SyncFromShards(context.Background()); err != nil {
			return nil, err
		}
		if tr == nil {
			handler = cluster.NewHandler(router, obs.NewRegistry(), caps, pol)
		} else {
			// cluster.NewHandler takes the concrete *Router, so the traced
			// stack mounts the wrapped router on the plain API server: the
			// request stream uses no cluster-only route.
			router.SetMetrics(obs.NewRegistry()).SetTraces(obsspan.NewRecorder(defaultTraceBuf))
			handler = api.NewBackendServer(tracedRouter{router, tr}, nil, caps, pol).Handler()
		}
	} else {
		dir := ""
		if w.WAL {
			dir = dataDir
		}
		eng, traces, slow, reg, err := buildEngine(caps, pol, dir)
		if err != nil {
			return nil, err
		}
		st.engines, st.regs = []*serve.Engine{eng}, []*obs.Registry{reg}
		var be api.Backend = eng
		if tr != nil {
			be = tracedEngine{eng, tr}
		}
		handler = api.NewBackendServer(be, reg, caps, pol).SetTraces(traces).SetSlowTraces(slow).Handler()
	}
	if tr != nil {
		handler = tr.handler(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.url = "http://" + ln.Addr().String()
	st.hs = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = st.hs.Serve(ln) }() // returns ErrServerClosed after stop
	return st, nil
}

// stop shuts the listener down, waits for in-flight requests and drains
// the engines.
func (st *stack) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = st.hs.Shutdown(ctx) // on timeout the engines are closed regardless
	for _, e := range st.engines {
		_ = e.Close() // scratch data directory: a failed final snapshot loses nothing
	}
}

// metrics sums the engines' registries: counters, and histogram sums and
// counts, by name.
func (st *stack) metrics() (counters map[string]float64, histSum, histCount map[string]float64) {
	counters, histSum, histCount = map[string]float64{}, map[string]float64{}, map[string]float64{}
	for _, reg := range st.regs {
		snap := reg.Snapshot()
		for name, v := range snap.Counters {
			counters[name] += float64(v)
		}
		for name, h := range snap.Histograms {
			histSum[name] += h.Sum
			histCount[name] += float64(h.Count)
		}
	}
	return counters, histSum, histCount
}
