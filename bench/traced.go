package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
)

// Shares of a traced run's -seconds: an untraced in-process pass (the base
// of trace.overhead_ratio), then the traced pass — 4 s and 8 s at
// BENCHMARK.json's run_seconds. The layer replays that follow are counted
// in operations, not seconds.
const (
	untracedShare = 1.0 / 6
	tracedShare   = 1.0 / 3
	preludeReads  = 3
)

// inprocPass populates a fresh in-process stack, warms it and drives the
// open loop at the reference rate for dur. With a tracer it first makes a
// few full reads of the freshly populated — hence seed-determined —
// allocation, whose reply size is the exact count
// api.resp_bytes_per_op.allocation, and it returns the index of the first
// span of the measured phase. The stack is stopped on return, so by then
// every span is closed.
func inprocPass(ctx context.Context, w workloadSpec, cfg runConfig, base *core.Instance, dataDir string, tr *tracer, dur time.Duration, res *runResult) (*phaseResult, int, error) {
	if err := os.RemoveAll(dataDir); err != nil {
		return nil, 0, err
	}
	st, err := startStack(w, base.SiteCapacity, dataDir, tr)
	if err != nil {
		return nil, 0, err
	}
	defer st.stop()
	d := newDriver(w, base, cfg.Seed, st.url, tr)
	defer d.close()
	if err := d.conns[0].populate(ctx, batchRequest(base)); err != nil {
		return nil, 0, err
	}
	for i := 0; tr != nil && i < preludeReads; i++ {
		if err := d.conns[0].do(ctx, d.nextOp.Add(1), op{Kind: opAllocation}); err != nil {
			return nil, 0, err
		}
	}
	warm := d.openLoop(ctx, 0, w.RateHz, cfg.warmDur()/3)
	mark := 0
	if tr != nil {
		mark = tr.count()
	}
	c0, s0, n0 := st.metrics()
	open := d.openLoop(ctx, 1, w.RateHz, dur)
	c1, s1, n1 := st.metrics()
	res.Attempted += warm.Attempted + open.Attempted
	res.Failed += warm.Failed + open.Failed
	if err := d.failure(); err != nil {
		fmt.Printf("# %v\n", err)
	}

	in, want, err := reference(w, base, d.acked)
	if err != nil {
		return nil, 0, err
	}
	served, err := d.conns[0].allocation(ctx)
	if err == nil {
		err = checkAllocation(in, want, served)
	}
	if err != nil && res.Problem == "" {
		res.Problem = err.Error()
	}
	if tr == nil {
		return open, 0, nil
	}

	// Counts the program already exports, as deltas over the traced phase.
	m := res.Metrics
	delta := func(after, before map[string]float64, name string) float64 { return after[name] - before[name] }
	mutations := delta(c1, c0, "engine.mutations_total")
	commitSum := delta(s1, s0, "engine.commit_latency")
	meanUS := func(name string) float64 { return ratio(delta(s1, s0, name), delta(n1, n0, name)) * 1e6 }
	m["serve.mutations_per_commit"] = ratio(mutations, delta(c1, c0, "engine.commits_total"))
	m["serve.commit_us_mean"] = meanUS("engine.commit_latency")
	m["serve.queue_wait_us_mean"] = meanUS("engine.stage.queue_wait")
	m["serve.publish_us_mean"] = meanUS("engine.stage.publish")
	var staged float64
	// The sequential stages of a commit; queue_wait precedes the commit
	// and solve.component overlaps solve, so neither is summed.
	for _, name := range []string{
		"engine.stage.apply", "engine.stage.wal_encode", "wal.append_latency", "wal.fsync_latency",
		"engine.stage.reconcile", "engine.stage.validate", "engine.stage.partition",
		"engine.stage.solve", "engine.stage.merge", "engine.stage.publish",
	} {
		staged += delta(s1, s0, name)
	}
	m["serve.stage_coverage"] = ratio(staged, commitSum)
	m["wal.fsyncs_per_mutation"] = ratio(delta(n1, n0, "wal.fsync_latency"), mutations)
	return open, mark, nil
}

// runTraced measures the per-layer metrics of one workload: spans from an
// in-process copy of the server stack, then replays of the layers that
// have no seam.
func runTraced(ctx context.Context, p paths, w workloadSpec, cfg runConfig) (*runResult, error) {
	res := &runResult{Workload: w.Name, Seed: cfg.Seed, Traced: true, Metrics: map[string]float64{}, Info: map[string]float64{}}
	base := baseInstance(w)
	dataDir := filepath.Join(p.mkdir("data"), w.Name+"-traced")
	seconds := func(share float64) time.Duration {
		return time.Duration(cfg.Seconds * share * float64(time.Second))
	}

	plain, _, err := inprocPass(ctx, w, cfg, base, dataDir, nil, seconds(untracedShare), res)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, mark, err := inprocPass(ctx, w, cfg, base, dataDir, tr, seconds(tracedShare), res)
	if err != nil {
		return nil, err
	}
	spans := tr.spans[mark:]
	m := res.Metrics
	layerMetrics(m, tr, spans, traced.Elapsed)
	m["api.resp_bytes_per_op.allocation"] = float64(tr.allocBytes[0])
	allLat := func(r *phaseResult) float64 {
		var all []float64
		for _, lat := range r.Lat {
			for _, s := range lat {
				all = append(all, s.MS)
			}
		}
		return median(all)
	}
	m["trace.overhead_ratio"] = ratio(allLat(traced), allLat(plain))
	res.Info["spans"] = float64(len(spans))
	res.Info["gen_lag_p99_ms"] = percentile(traced.Lag, 0.99)
	var client, selfSum int64
	for i, self := range selfTimes(spans) {
		selfSum += self
		if spans[i].Name == "client" {
			client += spans[i].dur()
		}
	}
	res.Info["self_sum_over_client"] = ratio(float64(selfSum), float64(client))

	ops := replayStream(w, base, replayMutations)
	if err := replayScheduler(m, w, base, ops); err != nil {
		return nil, err
	}
	if err := replayCore(m, w, base); err != nil {
		return nil, err
	}
	if err := replayWAL(m, w, base, ops, filepath.Join(p.mkdir("data"), w.Name+"-walreplay")); err != nil {
		return nil, err
	}
	if err := writeTrace(filepath.Join(p.out, "trace-"+w.Name+".json"), w.Name, cfg.Seed, spans); err != nil {
		return nil, err
	}
	res.Correct = res.Problem == ""
	return res, nil
}
