// Command amf-server runs the allocation controller as a standalone JSON/
// HTTP service (see internal/api for the endpoint reference).
//
// Requests are served through the concurrent engine (internal/serve):
// mutations are group-committed — many queued mutations share one
// re-solve — and allocation reads come lock-free from an immutable
// snapshot. -batch-max and -batch-window tune the batching; -batch-max 1
// restores one-solve-per-mutation behavior.
//
// With -data-dir the controller is durable: every committed batch is
// appended to a write-ahead log (internal/wal) and fsynced before it is
// acknowledged, the log is periodically folded into a state snapshot, and
// a restart — graceful or after a crash — replays the directory back to
// exactly the acknowledged state. -state remains as a lighter-weight
// alternative (snapshot on SIGTERM only; mutations between snapshot and
// crash are lost). The listener comes up before replay starts: until
// recovery completes, GET /v1/healthz answers 200 and everything else —
// including GET /v1/readyz — answers 503 with the stable "unavailable"
// code, so orchestrators can distinguish live from ready.
//
// Cluster modes (internal/cluster):
//
//   - -cluster-shards N hosts N engine shards in one process behind a
//     shard router; each shard keeps its own WAL under
//     <data-dir>/shard-<i> and the router's merged API is served on
//     -listen. Jobs are routed by their site footprint; under
//     amf-enhanced the router broadcasts the global weight sum so
//     per-shard solves equal the single-engine solve exactly.
//   - -ship-addr serves the write-ahead log(s) for replication on a
//     second listener: GET <ship-addr>/wal for a single engine,
//     GET <ship-addr>/wal/shard-<i> per cluster shard.
//   - -replica-of URL runs a read replica: it tails the WAL stream at
//     URL (a -ship-addr endpoint), replays batches through its own
//     scheduler, and serves the read-only API on -listen. /v1/readyz is
//     503 until the replica first catches up to the primary's durable
//     head; mutations are rejected with invalid_argument.
//
// Observability: logs are structured JSON on stderr (log/slog); every
// commit is traced into a ring served at GET /v1/traces (-trace-buffer
// sizes it, 0 disables tracing); Prometheus metrics are scraped from
// GET /metrics; -slow-commit logs a warning with per-stage timings for
// commits over the threshold; -debug-addr serves net/http/pprof on a
// separate opt-in listener.
//
// Usage:
//
//	amf-server -listen :8080 -capacity 4,4,8 -policy amf
//	amf-server -data-dir /var/lib/amf -batch-max 256 -batch-window 2ms
//	amf-server -data-dir /var/lib/amf -ship-addr :9090            # primary
//	amf-server -replica-of http://primary:9090/wal -listen :8081  # follower
//	amf-server -cluster-shards 2 -data-dir /var/lib/amf -ship-addr :9090
//	amf-server -debug-addr localhost:6060 -slow-commit 50ms
//
// Example session:
//
//	curl -X POST localhost:8080/v1/jobs \
//	     -d '{"id":"etl","demand":[4,4,0],"work":[20,20,0]}'
//	curl localhost:8080/v1/allocation
//	curl -X POST localhost:8080/v1/jobs/etl/progress -d '{"done":[2,2,0]}'
//	curl localhost:8080/v1/readyz
//	curl localhost:8080/v1/stats
//	curl localhost:8080/metrics
//	curl localhost:8080/v1/traces?limit=5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/wal"
)

func main() {
	var (
		listen        = flag.String("listen", ":8080", "listen address")
		capacity      = flag.String("capacity", "4,4", "comma-separated per-site capacities")
		policyName    = flag.String("policy", "amf", "fairness policy: "+strings.Join(policy.Names(), ", "))
		state         = flag.String("state", "", "snapshot file: loaded at boot if present, saved on SIGINT/SIGTERM")
		dataDir       = flag.String("data-dir", "", "durable data directory: write-ahead log + snapshots, replayed on boot")
		clusterShards = flag.Int("cluster-shards", 0, "host this many engine shards behind an in-process router (0/1 = single engine)")
		replicaOf     = flag.String("replica-of", "", "run as a read replica tailing this WAL ship URL (e.g. http://primary:9090/wal)")
		shipAddr      = flag.String("ship-addr", "", "serve WAL replication streams on this address (requires -data-dir)")
		replicaIval   = flag.Duration("replica-interval", 50*time.Millisecond, "replica poll interval against the primary's WAL stream")
		batchMax      = flag.Int("batch-max", 256, "max mutations committed per solve (1 = solve per mutation)")
		batchWindow   = flag.Duration("batch-window", 0, "extra time to gather a batch after its first mutation (0 = only drain what is queued)")
		compactMB     = flag.Int64("wal-compact-mb", 4, "fold the WAL into a snapshot once its record tail exceeds this many MiB")
		compactIval   = flag.Duration("wal-compact-interval", time.Minute, "additionally compact the WAL this often (0 disables the timer)")
		dumpMetrics   = flag.Bool("metrics-on-exit", true, "log a final metrics snapshot as one JSON document on shutdown")
		traceBuf      = flag.Int("trace-buffer", 256, "commit traces kept for GET /v1/traces (0 disables tracing)")
		slowTraceBuf  = flag.Int("slow-trace-buffer", 32, "slowest commit traces retained for GET /v1/traces?slow=1 (0 disables slow retention)")
		slowTraceWin  = flag.Duration("slow-trace-window", 10*time.Minute, "sliding window the slow-trace ring retains over")
		slowCommit    = flag.Duration("slow-commit", 0, "log a warning with per-stage timings for commits slower than this (0 disables)")
		debugAddr     = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty disables; keep it loopback-only)")
		logLevel      = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		approxEps     = flag.Float64("approx-epsilon", 0, "approximate water-filling deviation budget as a fraction of instance scale (0 = always exact)")
		approxThresh  = flag.Int("approx-threshold", 0, "component size (jobs + demand edges) above which the approximate solver engages (0 = never)")
	)
	flag.Parse()

	logger, err := newLogger(*logLevel)
	if err != nil {
		fatal(slog.Default(), "amf-server: invalid -log-level", err)
	}
	slog.SetDefault(logger)

	caps, err := parseCapacities(*capacity)
	if err != nil {
		fatal(logger, "amf-server: bad -capacity", err)
	}
	p, err := policy.ForName(*policyName)
	if err != nil {
		fatal(logger, "amf-server: bad -policy", err)
	}
	// Reject bad approximation knobs at parse time with the same
	// invalid-argument semantics the API enforces, instead of failing the
	// first solve.
	if *approxEps < 0 || math.IsNaN(*approxEps) || math.IsInf(*approxEps, 0) {
		fatal(logger, "amf-server: bad -approx-epsilon",
			fmt.Errorf("must be a finite non-negative fraction, got %g", *approxEps))
	}
	if *approxThresh < 0 {
		fatal(logger, "amf-server: bad -approx-threshold",
			fmt.Errorf("must be non-negative, got %d", *approxThresh))
	}
	cfg := serverConfig{
		listen:       *listen,
		shipAddr:     *shipAddr,
		dataDir:      *dataDir,
		batchMax:     *batchMax,
		batchWindow:  *batchWindow,
		compactMB:    *compactMB,
		compactIval:  *compactIval,
		traceBuf:     *traceBuf,
		slowTraceBuf: *slowTraceBuf,
		slowTraceWin: *slowTraceWin,
		slowCommit:   *slowCommit,
		interval:     *replicaIval,
		approxEps:    *approxEps,
		approxThresh: *approxThresh,
	}

	// The listener comes up before any WAL replay or replica sync: until
	// the mode handler is swapped in, healthz answers 200 and everything
	// else 503/unavailable, so probes see live-but-unready during boot.
	swap := newSwapHandler()
	hs := &http.Server{
		Addr:              *listen,
		Handler:           swap,
		ReadHeaderTimeout: 10 * time.Second,
	}
	listenErr := make(chan error, 1)
	go func() { listenErr <- hs.ListenAndServe() }()

	if *debugAddr != "" {
		go serveDebug(logger, *debugAddr)
	}

	var (
		handler http.Handler
		stop    func()
		mode    string
	)
	switch {
	case *replicaOf != "":
		mode = "replica"
		if *clusterShards > 1 {
			fatal(logger, "amf-server: flags", fmt.Errorf("-replica-of and -cluster-shards are mutually exclusive"))
		}
		if *dataDir != "" || *state != "" {
			fatal(logger, "amf-server: flags", fmt.Errorf("a replica rebuilds its state from the primary's WAL; drop -data-dir/-state"))
		}
		handler, stop, err = runReplica(logger, caps, p, *replicaOf, cfg)
	case *clusterShards > 1:
		mode = fmt.Sprintf("cluster(%d shards)", *clusterShards)
		if *state != "" {
			fatal(logger, "amf-server: flags", fmt.Errorf("-state is single-engine only; use -data-dir for per-shard WALs"))
		}
		handler, stop, err = runCluster(logger, caps, p, *clusterShards, cfg)
	default:
		mode = "single"
		handler, stop, err = runSingle(logger, caps, p, *state, *dumpMetrics, cfg)
	}
	if err != nil {
		fatal(logger, "amf-server: "+mode, err)
	}
	swap.Swap(handler)
	logger.Info("serving",
		"listen", *listen,
		"mode", mode,
		"sites", len(caps),
		"policy", p.Name(),
		"tracing", *traceBuf > 0)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-listenErr:
		fatal(logger, "amf-server: listen", err)
	case <-sigs:
		stop()
		os.Exit(0)
	}
}

// runSingle assembles the classic one-engine server: scheduler, optional
// WAL replay, serve.Engine, API handler. The returned stop func drains
// the engine and performs the -state / -metrics-on-exit shutdown work.
func runSingle(logger *slog.Logger, caps []float64, p policy.Policy, state string, dumpMetrics bool, cfg serverConfig) (http.Handler, func(), error) {
	sc, err := scheduler.New(scheduler.Config{
		SiteCapacity:    caps,
		Policy:          p,
		ApproxEpsilon:   cfg.approxEps,
		ApproxThreshold: cfg.approxThresh,
	})
	if err != nil {
		return nil, nil, err
	}
	if state != "" {
		if err := loadState(logger, sc, state); err != nil {
			return nil, nil, fmt.Errorf("loading state: %w", err)
		}
	}
	reg := obs.NewRegistry()

	var logHandle *wal.Log
	if cfg.dataDir != "" {
		l, recovery, err := wal.Open(cfg.dataDir, wal.Options{})
		if err != nil {
			return nil, nil, fmt.Errorf("opening data dir %s: %w", cfg.dataDir, err)
		}
		st, err := recovery.Replay(sc)
		if err != nil {
			return nil, nil, fmt.Errorf("recovering %s: %w", cfg.dataDir, err)
		}
		reg.Gauge("wal.replayed_batches").Set(float64(st.Batches))
		reg.Gauge("wal.replayed_mutations").Set(float64(st.Mutations))
		reg.Gauge("wal.replay_failures").Set(float64(st.Failed))
		reg.Gauge("wal.skipped_records").Set(float64(recovery.SkippedRecords))
		reg.Gauge("wal.skipped_states").Set(float64(recovery.SkippedStates))
		logger.Info("recovered from write-ahead log",
			"dir", cfg.dataDir,
			"jobs", sc.Stats().Jobs,
			"snapshot", st.Restored,
			"batches", st.Batches,
			"mutations", st.Mutations,
			"torn_records_skipped", recovery.SkippedRecords)
		logHandle = l
	}
	if cfg.shipAddr != "" {
		if logHandle == nil {
			return nil, nil, fmt.Errorf("-ship-addr requires -data-dir (there is no log to ship)")
		}
		go serveShip(logger, cfg.shipAddr, map[string]*wal.Log{"/wal": logHandle})
	}

	var traces *span.Recorder
	if cfg.traceBuf > 0 {
		traces = span.NewRecorder(cfg.traceBuf)
	}
	var slowTraces *span.SlowRecorder
	if cfg.slowTraceBuf > 0 {
		slowTraces = span.NewSlowRecorder(cfg.slowTraceBuf, cfg.slowTraceWin)
	}
	eng, err := serve.New(sc, serve.Config{
		MaxBatch:        cfg.batchMax,
		BatchWindow:     cfg.batchWindow,
		Metrics:         reg,
		Log:             logHandle,
		CompactBytes:    cfg.compactMB << 20,
		CompactInterval: cfg.compactIval,
		Traces:          traces,
		SlowTraces:      slowTraces,
		Logger:          logger,
		SlowCommit:      cfg.slowCommit,
	})
	if err != nil {
		return nil, nil, err
	}
	srv := api.NewBackendServer(eng, reg, caps, p).SetTraces(traces).SetSlowTraces(slowTraces)

	durability := "none (in-memory)"
	if cfg.dataDir != "" {
		durability = "wal @ " + cfg.dataDir
	} else if state != "" {
		durability = "snapshot-on-exit @ " + state
	}
	logger.Info("engine ready", "batch_max", cfg.batchMax, "durability", durability)

	stop := func() {
		// Drain queued mutations; with -data-dir this also folds the WAL
		// into a final snapshot and seals the log.
		_ = eng.Close()
		if state != "" {
			// Persist the job set so a restart resumes where it left off.
			if err := saveState(sc, state); err != nil {
				logger.Error("saving state failed", "path", state, "err", err.Error())
			} else {
				logger.Info("state saved", "path", state)
			}
		}
		if dumpMetrics {
			// One structured record wrapping the whole snapshot: the
			// document lands on stderr as a single JSON line instead of
			// interleaving with stdout, so `amf-server 2>log` followed by
			// `jq .metrics log` recovers it mechanically.
			if buf, err := json.Marshal(reg.Snapshot()); err == nil {
				logger.Info("final metrics", "metrics", json.RawMessage(buf))
			}
		}
	}
	return srv.Handler(), stop, nil
}

// newLogger builds the process logger: structured JSON to stderr.
func newLogger(level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, err
	}
	return slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}

func fatal(logger *slog.Logger, msg string, err error, args ...any) {
	logger.Error(msg, append([]any{"err", err.Error()}, args...)...)
	os.Exit(1)
}

// serveDebug exposes net/http/pprof on its own opt-in listener, on an
// explicit mux so the profiling surface never leaks onto the API port.
func serveDebug(logger *slog.Logger, addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Info("pprof listening", "addr", addr)
	ds := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	if err := ds.ListenAndServe(); err != nil {
		logger.Error("pprof listener failed", "addr", addr, "err", err.Error())
	}
}

func loadState(logger *slog.Logger, sc *scheduler.Scheduler, path string) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil // first boot
		}
		return err
	}
	defer f.Close()
	if err := sc.ReadSnapshot(f); err != nil {
		return err
	}
	logger.Info("state restored", "path", path, "jobs", sc.Stats().Jobs)
	return nil
}

func saveState(sc *scheduler.Scheduler, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := sc.WriteSnapshot(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func parseCapacities(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	caps := make([]float64, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad capacity %q: %w", part, err)
		}
		caps = append(caps, v)
	}
	return caps, nil
}
