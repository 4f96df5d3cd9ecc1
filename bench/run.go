package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/randx"
)

// runConfig is one invocation's knobs. Only Seed varies between the runs
// that are compared; Seconds comes from BENCHMARK.json.
type runConfig struct {
	Seed    uint64
	Seconds float64
	Smoke   bool
}

// openDur and closedDur are the lengths of one round's phases.
func (c runConfig) openDur() time.Duration {
	return time.Duration(c.Seconds * openShare / rounds * float64(time.Second))
}

func (c runConfig) closedDur() time.Duration {
	return time.Duration(c.Seconds * (1 - openShare) / rounds * float64(time.Second))
}

func (c runConfig) warmDur() time.Duration {
	if c.Smoke {
		return 200 * time.Millisecond
	}
	return time.Duration(warmSeconds * float64(time.Second))
}

// runResult is one run of one workload. Metrics holds the catalogued
// metrics (end-to-end, or per-layer for a traced run); Notes holds what is
// printed on a metric's row beside the value (sample and window counts,
// the raw ratio); Info holds what is printed but not catalogued.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Notes     map[string]string  `json:"notes,omitempty"`
	Info      map[string]float64 `json:"info"`
	Problem   string             `json:"problem,omitempty"`
}

// latencyMetrics fills the per-class open-loop latency metrics from the
// pooled rounds: per window the median and the upper quartile, then the
// median over windows. The window count follows the expected sample count
// — frozen rate × mix × phase length — so it is the same on every run of
// a workload. The plain p99 of every write and point read of the run is
// printed beside them as information: README.md says why it is not a
// metric.
func latencyMetrics(res *runResult, w workloadSpec, open *phaseResult, dur time.Duration) {
	for c, m := range [numClasses]struct{ p50, p75, p99 string }{
		classWrite: {"write_p50_ms", "write_p75_ms", "unresolved.write_p99_ms"},
		classPoint: {"read_p50_ms", "", "unresolved.read_p99_ms"},
		classFull:  {"alloc_p50_ms", "", ""},
	} {
		lat := open.Lat[c]
		n := windowCount(w.expected(opClass(c), dur))
		note := fmt.Sprintf("n=%d windows=%d", len(lat), n)
		res.Metrics[m.p50], res.Notes[m.p50] = windowed(lat, dur, n, 0.5), note
		if m.p75 != "" {
			res.Metrics[m.p75], res.Notes[m.p75] = windowed(lat, dur, n, 0.75), note
		}
		if m.p99 != "" {
			res.Info[m.p99] = windowed(lat, dur, 1, 0.99)
		}
	}
}

// sloMissRatio is the median over the windows of the pooled open-loop
// phases of the share of the window's requests, all classes together,
// that failed or took longer than their class's latency limit.
func sloMissRatio(w workloadSpec, open *phaseResult, dur time.Duration) float64 {
	attempted := make([]float64, maxWindows)
	missed := make([]float64, maxWindows)
	window := func(atNS int64) int { return min(int(atNS*maxWindows/int64(dur)), maxWindows-1) }
	for c := range open.Lat {
		for _, s := range open.Lat[c] {
			attempted[window(s.AtNS)]++
			if s.MS > w.limitMS(opClass(c)) {
				missed[window(s.AtNS)]++
			}
		}
	}
	for _, at := range open.FailAt {
		attempted[window(at)]++
		missed[window(at)]++
	}
	var ratios []float64
	for i, n := range attempted {
		if n > 0 {
			ratios = append(ratios, missed[i]/n)
		}
	}
	return median(ratios)
}

// pooled is what the rounds of one run measured together.
type pooled struct {
	open, sat  phaseResult
	setups     []float64 // s
	rss        []float64 // MiB
	cpuSeconds float64   // server CPU over the open-loop phases
	warm       phaseResult
}

// runServer measures the end-to-end metrics of one workload against real
// amf-server processes over loopback HTTP. A run whose generator ran late
// is invalid: it is measured again and not reported. The driver's contract
// needs a result from every invocation, so when every one of runAttempts
// attempts was invalid the most punctual is reported, marked
// gen_lag_over_limit.
func runServer(ctx context.Context, p paths, w workloadSpec, cfg runConfig) (*runResult, error) {
	base := baseInstance(w)
	var best *runResult
	for attempt := 1; attempt <= runAttempts; attempt++ {
		res, err := measure(ctx, p, w, cfg, base)
		if err != nil {
			return nil, err
		}
		// A -smoke run sends too few requests for their p99 to mean much.
		lag := res.Info["gen_lag_p99_ms"]
		if lag <= maxGenLagMS || cfg.Smoke {
			return res, nil
		}
		fmt.Printf("# %s seed %d: invalid run, gen_lag_p99_ms %.3f > %g\n", w.Name, cfg.Seed, lag, maxGenLagMS)
		if best == nil || lag < best.Info["gen_lag_p99_ms"] {
			best = res
		}
	}
	best.Info["gen_lag_over_limit"] = 1
	return best, nil
}

// measure is one run. The measured seconds are split over `rounds` server
// processes, each set up from nothing, and the samples pooled: the same
// binary on the same inputs runs 10–20 % faster or slower from one
// process to the next (memory layout, thread placement), and a metric
// read from one process inherits that.
func measure(ctx context.Context, p paths, w workloadSpec, cfg runConfig, base *core.Instance) (*runResult, error) {
	res := &runResult{Workload: w.Name, Seed: cfg.Seed, Metrics: map[string]float64{}, Notes: map[string]string{}, Info: map[string]float64{}}
	var sum pooled
	for r := 0; r < rounds; r++ {
		if err := runRound(ctx, p, w, cfg, base, r, &sum, res); err != nil {
			return nil, err
		}
	}
	open, sat := &sum.open, &sum.sat
	m := res.Metrics
	m["setup_s"] = median(sum.setups)
	latencyMetrics(res, w, open, cfg.openDur()*rounds)
	m["sat_ops_per_s"] = float64(sat.completed()) / sat.Elapsed.Seconds()
	m["cpu_ms_per_op"] = sum.cpuSeconds * 1e3 / float64(max(open.completed(), 1))
	m["rss_mb"] = median(sum.rss)
	failRatio := float64(open.Failed+sat.Failed) / float64(max(open.Attempted+sat.Attempted, 1))
	sloMiss := sloMissRatio(w, open, cfg.openDur()*rounds)
	m["fail_ratio"] = failRatio + ratioOffset
	m["slo_miss_ratio"] = sloMiss + ratioOffset
	res.Notes["fail_ratio"] = fmt.Sprintf("raw=%g offset=%g", failRatio, ratioOffset)
	res.Notes["slo_miss_ratio"] = fmt.Sprintf("raw=%g offset=%g", sloMiss, ratioOffset)
	res.Notes["sat_ops_per_s"] = fmt.Sprintf("n=%d", sat.completed())
	res.Notes["cpu_ms_per_op"] = fmt.Sprintf("n=%d", open.completed())
	sort.Float64s(open.Lag)
	res.Info["slo_miss_ratio.pooled"] = float64(open.SLOMiss) / float64(max(open.Attempted, 1))
	res.Info["open_ops_per_s"] = float64(open.completed()) / open.Elapsed.Seconds()
	res.Info["gen_lag_p99_ms"] = percentile(open.Lag, 0.99)
	res.Attempted = sum.warm.Attempted + open.Attempted + sat.Attempted
	res.Failed = sum.warm.Failed + open.Failed + sat.Failed
	res.Correct = res.Problem == ""
	return res, nil
}

// runRound is one server process of a run: set-up, warm-up, open loop,
// closed loop, correctness gate, kill.
func runRound(ctx context.Context, p paths, w workloadSpec, cfg runConfig, base *core.Instance, r int, sum *pooled, res *runResult) error {
	dataDir := filepath.Join(p.mkdir("data"), w.Name)
	openDur, closedDur := cfg.openDur(), cfg.closedDur()
	srv, setup, err := setUp(ctx, p.serverBin(), w, base, dataDir)
	if err != nil {
		return err
	}
	defer func() { srv.kill() }()
	sum.setups = append(sum.setups, setup.Seconds())

	d := newDriver(w, base, randx.DeriveSeed(cfg.Seed, fmt.Sprint("round", r)), srv.url, nil)
	defer d.close()
	warm := d.openLoop(ctx, 0, w.RateHz, cfg.warmDur())
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	open := d.openLoop(ctx, 1, w.RateHz, openDur)
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	sat := d.closedLoop(ctx, closedDur)
	peak, err := srv.peakRSSMiB()
	if err != nil {
		return err
	}
	sum.cpuSeconds += cpu1 - cpu0
	sum.rss = append(sum.rss, peak)
	sum.warm.merge(warm, 0)
	sum.open.merge(open, time.Duration(r)*openDur)
	sum.sat.merge(sat, time.Duration(r)*closedDur)
	if err := d.failure(); err != nil {
		fmt.Printf("# %v\n", err)
	}

	// Correctness gate: the served allocation is the max-min fair point of
	// exactly the acknowledged job set.
	in, want, err := reference(w, base, d.acked)
	if err != nil {
		return err
	}
	problem := gate(ctx, srv, in, want)
	if problem == "" && w.CrashCheck && r == rounds-1 {
		// Process-crash recovery (not power loss: the page cache survives
		// a SIGKILL): what was acknowledged must come back from -data-dir.
		srv.kill()
		restarted, err := startServer(p.serverBin(), w, dataDir)
		if err != nil {
			return err
		}
		srv = restarted
		if problem = gate(ctx, srv, in, want); problem != "" {
			problem = "after SIGKILL and restart: " + problem
		}
	}
	if res.Problem == "" {
		res.Problem = problem
	}
	return nil
}

// gate reads the full allocation from srv and checks it against the
// reference; it returns "" when the allocation is right.
func gate(ctx context.Context, srv *server, in *core.Instance, want map[string][]float64) string {
	c := newConn(srv.url, nil)
	defer c.close()
	if err := srv.waitReady(ctx, c); err != nil {
		return err.Error()
	}
	served, err := c.allocation(ctx)
	if err != nil {
		return err.Error()
	}
	if err := checkAllocation(in, want, served); err != nil {
		return err.Error()
	}
	return ""
}
