package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/workload"
)

// clusterOptions parameterizes the cluster read-scaling benchmark
// (-cluster): a WAL-durable primary under sustained churn writes ships
// its log to N read replicas, and each serving endpoint's HTTP read
// throughput is measured in isolation. Endpoints are measured one at a
// time — on a shared test box that is the only honest way to estimate
// per-machine serving capacity — and the aggregate assumes one endpoint
// per machine, which is how replicas deploy.
type clusterOptions struct {
	replicas   int
	readers    int // concurrent HTTP readers per endpoint
	components int
	jobs       int // per component
	sites      int // per component
	dur        time.Duration
	writeIval  time.Duration
	zipf       float64
	seed       uint64
	out        string // JSON results path ("" = skip)
}

// clusterEndpoint is one serving endpoint's measured read capacity.
type clusterEndpoint struct {
	Role           string  `json:"role"` // "primary" or "replica-<i>"
	ReadsPerSecond float64 `json:"reads_per_second"`
}

// clusterResult is the machine-readable record written to -cluster-out
// (BENCH_cluster.json in CI).
type clusterResult struct {
	Benchmark          string            `json:"benchmark"`
	Env                benchEnv          `json:"env"`
	Note               string            `json:"note"`
	GOMAXPROCS         int               `json:"gomaxprocs"`
	Components         int               `json:"components"`
	JobsPerComponent   int               `json:"jobs_per_component"`
	SitesPerComponent  int               `json:"sites_per_component"`
	ZipfSkew           float64           `json:"zipf_skew"`
	ReadersPerEndpoint int               `json:"readers_per_endpoint"`
	DurationSeconds    float64           `json:"duration_seconds_per_endpoint"`
	WriterIntervalMS   float64           `json:"writer_interval_ms"`
	WriterMutations    int64             `json:"writer_mutations"`
	Endpoints          []clusterEndpoint `json:"endpoints"`
	SingleEngineRPS    float64           `json:"single_engine_rps"`
	AggregateRPS       float64           `json:"aggregate_rps"`
	ScalingVsSingle    float64           `json:"scaling_vs_single"`
	MaxLagBytes        float64           `json:"max_replica_lag_bytes"`
	MaxLagSegments     float64           `json:"max_replica_lag_segments"`
	MaxStalenessMS     float64           `json:"max_replica_staleness_ms"`
	FinalCatchupMS     float64           `json:"final_catchup_ms"`
	ReplicaPollMS      float64           `json:"replica_poll_ms"`
}

// runClusterBench builds a primary + N replicas over real loopback HTTP,
// keeps a churn writer running against the primary for the whole run,
// measures each endpoint's saturated read throughput, and verifies the
// replicas converge to the primary's exact allocation afterwards.
func runClusterBench(o clusterOptions) error {
	const pollIval = 5 * time.Millisecond

	ch := workload.GenerateChurn(workload.ChurnConfig{
		Sparse: workload.SparseConfig{
			Components:        o.components,
			JobsPerComponent:  o.jobs,
			SitesPerComponent: o.sites,
			Seed:              o.seed,
		},
		Mutations: 4096,
		Seed:      o.seed + 1,
		ZipfSkew:  o.zipf,
	})
	caps := ch.Inst.SiteCapacity

	// Primary: WAL-durable engine behind the real API server.
	dir, err := os.MkdirTemp("", "amf-cluster-bench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, _, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
	if err != nil {
		return err
	}
	sc, err := scheduler.New(scheduler.Config{SiteCapacity: caps, Policy: policy.EnhancedAMF})
	if err != nil {
		return err
	}
	eng, err := serve.New(sc, serve.Config{Log: log, MaxBatch: 64})
	if err != nil {
		return err
	}
	defer eng.Close()
	// Populate through the engine so the base jobs land in the log —
	// that is what the replicas replay.
	if err := ch.Populate(engineTarget{eng: eng}); err != nil {
		return err
	}
	primarySrv := httptest.NewServer(api.NewBackendServer(eng, nil, caps, policy.EnhancedAMF).Handler())
	defer primarySrv.Close()
	shipSrv := httptest.NewServer(wal.NewShipHandler(log))
	defer shipSrv.Close()

	// Replicas: each tails the shipped WAL and serves the read-only API.
	reps := make([]*cluster.Replica, o.replicas)
	repSrvs := make([]*httptest.Server, o.replicas)
	for i := range reps {
		rep, err := cluster.NewReplica(cluster.ReplicaConfig{
			Source:       &wal.ShipClient{Base: shipSrv.URL, HTTP: shipSrv.Client()},
			SiteCapacity: caps,
			Policy:       policy.EnhancedAMF,
			Interval:     pollIval,
		})
		if err != nil {
			return err
		}
		defer rep.Close()
		reps[i] = rep
		repSrvs[i] = httptest.NewServer(api.NewBackendServer(rep, nil, caps, policy.EnhancedAMF).Handler())
		defer repSrvs[i].Close()
	}
	if err := waitReplicas(reps, log); err != nil {
		return err
	}

	// Sustained writer: replay the churn stream cyclically against the
	// primary until the whole measurement is over. Duplicate-add /
	// unknown-job errors are the documented cyclic-replay artifacts.
	var writerOps atomic.Int64
	writerStop := make(chan struct{})
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		target := engineTarget{eng: eng}
		for i := 0; ; i++ {
			select {
			case <-writerStop:
				return
			default:
			}
			err := ch.Ops[i%len(ch.Ops)].Apply(target)
			if err != nil && !errors.Is(err, scheduler.ErrUnknownJob) && !errors.Is(err, scheduler.ErrDuplicateJob) {
				return
			}
			writerOps.Add(1)
			time.Sleep(o.writeIval)
		}
	}()

	// Lag sampler: track the worst replica lag seen while writes flow,
	// measured directly as each replica's applied cursor against the
	// primary's durable head (the poll-updated gauges mostly read zero
	// because each 5ms poll drains the backlog).
	var maxLagBytes, maxLagSegments, maxStaleNS atomic.Int64
	samplerStop := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-samplerStop:
				return
			case <-tick.C:
				head := log.Durable()
				for _, rep := range reps {
					v := rep.View()
					if v == nil || !v.Cursor.Before(head) {
						continue
					}
					if st := time.Since(v.AppliedAt).Nanoseconds(); st > maxStaleNS.Load() {
						maxStaleNS.Store(st)
					}
					if segs := int64(head.Segment - v.Cursor.Segment); segs > maxLagSegments.Load() {
						maxLagSegments.Store(segs)
					}
					lag := head.Offset
					if head.Segment == v.Cursor.Segment {
						lag -= v.Cursor.Offset
					}
					if lag > maxLagBytes.Load() {
						maxLagBytes.Store(lag)
					}
				}
			}
		}
	}()

	// Measure each endpoint in isolation (writer still running).
	endpoints := []clusterEndpoint{{Role: "primary"}}
	for i := range reps {
		endpoints = append(endpoints, clusterEndpoint{Role: fmt.Sprintf("replica-%d", i)})
	}
	for i, srv := range append([]*httptest.Server{primarySrv}, repSrvs...) {
		rps, err := measureReads(srv, o.readers, o.dur)
		if err != nil {
			return err
		}
		endpoints[i].ReadsPerSecond = rps
	}

	// Stop writes and time the final catch-up — the direct staleness
	// bound: how far behind a replica can be once the firehose stops.
	close(writerStop)
	writerWG.Wait()
	if err := log.Sync(); err != nil {
		return err
	}
	catchStart := time.Now()
	if err := waitReplicas(reps, log); err != nil {
		return err
	}
	catchup := time.Since(catchStart)
	close(samplerStop)
	samplerWG.Wait()

	// Convergence check: replicas must serve the primary's exact shares.
	want := eng.Current()
	for i, rep := range reps {
		v := rep.View()
		if len(v.Shares) != len(want.Shares) {
			return fmt.Errorf("replica %d diverged: %d jobs vs primary %d", i, len(v.Shares), len(want.Shares))
		}
	}

	res := clusterResult{
		Benchmark: "cluster_read_scaling",
		Env:       captureEnv(),
		Note: "per-endpoint read capacity measured in isolation on a shared box; " +
			"aggregate assumes one endpoint per machine (how replicas deploy)",
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		Components:         o.components,
		JobsPerComponent:   o.jobs,
		SitesPerComponent:  o.sites,
		ZipfSkew:           o.zipf,
		ReadersPerEndpoint: o.readers,
		DurationSeconds:    o.dur.Seconds(),
		WriterIntervalMS:   float64(o.writeIval) / float64(time.Millisecond),
		WriterMutations:    writerOps.Load(),
		Endpoints:          endpoints,
		SingleEngineRPS:    endpoints[0].ReadsPerSecond,
		MaxLagBytes:        float64(maxLagBytes.Load()),
		MaxLagSegments:     float64(maxLagSegments.Load()),
		MaxStalenessMS:     float64(maxStaleNS.Load()) / float64(time.Millisecond),
		FinalCatchupMS:     float64(catchup) / float64(time.Millisecond),
		ReplicaPollMS:      float64(pollIval) / float64(time.Millisecond),
	}
	for _, ep := range endpoints {
		res.AggregateRPS += ep.ReadsPerSecond
	}
	if res.SingleEngineRPS > 0 {
		res.ScalingVsSingle = res.AggregateRPS / res.SingleEngineRPS
	}

	fmt.Printf("Cluster read-scaling benchmark: %d replicas, %d readers/endpoint, %v/endpoint, writer every %v, zipf %.2f\n\n",
		o.replicas, o.readers, o.dur, o.writeIval, o.zipf)
	fmt.Printf("%-12s %16s\n", "endpoint", "reads/sec")
	for _, ep := range endpoints {
		fmt.Printf("%-12s %16.0f\n", ep.Role, ep.ReadsPerSecond)
	}
	fmt.Printf("\naggregate: %.0f reads/sec = %.2fx single engine (%d sustained writes during run)\n",
		res.AggregateRPS, res.ScalingVsSingle, res.WriterMutations)
	fmt.Printf("staleness: max %.1fms behind head (lag %d bytes / %d segments); final catch-up %.1fms at %.0fms poll\n",
		res.MaxStalenessMS, maxLagBytes.Load(), maxLagSegments.Load(), res.FinalCatchupMS, res.ReplicaPollMS)

	if o.out != "" {
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", o.out)
	}
	return nil
}

// waitReplicas blocks until every replica has applied the log's durable
// head.
func waitReplicas(reps []*cluster.Replica, log *wal.Log) error {
	head := log.Durable()
	deadline := time.Now().Add(30 * time.Second)
	for _, rep := range reps {
		for {
			if v := rep.View(); v != nil && !v.Cursor.Before(head) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("replica never caught up to %+v (last error: %s)", head, rep.LastError())
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// measureReads saturates one endpoint with concurrent GET /v1/allocation
// readers for dur and returns the achieved reads/sec.
func measureReads(srv *httptest.Server, readers int, dur time.Duration) (float64, error) {
	cl := api.NewClient(srv.URL, srv.Client())
	ctx, cancel := context.WithTimeout(context.Background(), dur)
	defer cancel()
	var count atomic.Int64
	errCh := make(chan error, readers)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if _, err := cl.Allocation(ctx); err != nil {
					if ctx.Err() == nil {
						errCh <- err
					}
					return
				}
				count.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return 0, fmt.Errorf("reader: %w", err)
	default:
	}
	return float64(count.Load()) / elapsed.Seconds(), nil
}
