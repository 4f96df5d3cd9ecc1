// Command amf-bench regenerates the evaluation: every table and figure of
// the paper's experiment section (reconstructed as experiments E1-E10, see
// DESIGN.md).
//
// Usage:
//
//	amf-bench                 # run the full suite
//	amf-bench -run E1,E5      # run selected experiments
//	amf-bench -quick          # reduced sizes (smoke test)
//	amf-bench -seed 7         # different workload seed
//	amf-bench -list           # list experiment IDs and titles
//
// A separate serving-throughput mode benchmarks the concurrent engine
// (internal/serve) under mixed mutator/reader load, batched group commit
// vs. one solve per mutation:
//
//	amf-bench -serve                            # 8 mutators + 8 readers
//	amf-bench -serve -serve-mutators 16 -serve-dur 5s
//
// A decomposition mode compares the whole-network solve (AMFDiag) against
// the component-decomposed parallel path on a block-diagonal sparse
// instance, optionally emitting machine-readable results:
//
//	amf-bench -decompose
//	amf-bench -decompose -decompose-components 128 -decompose-out BENCH_solver.json
//
// A churn mode replays a component-local mutation stream through the
// serving engine with and without incremental re-solving and compares
// per-commit latency:
//
//	amf-bench -churn
//	amf-bench -churn -churn-mutations 2048 -churn-out BENCH_incremental.json
//	amf-bench -churn -zipf 1.2        # skew churn onto a few hot components
//
// A cluster mode measures read-throughput scaling with WAL-shipped read
// replicas: a durable primary under sustained churn ships its log to N
// replicas and each endpoint's saturated HTTP read rate is measured in
// isolation, along with the replicas' worst observed lag:
//
//	amf-bench -cluster
//	amf-bench -cluster -cluster-replicas 2 -cluster-out BENCH_cluster.json
//
// An observability mode replays the same mutation stream with the
// metrics/tracing stack off and fully on and reports the per-commit
// overhead plus the recorded traces' span coverage:
//
//	amf-bench -obs
//	amf-bench -obs -obs-out BENCH_obs.json -obs-cpuprofile obs.pprof
//
// A large-graph mode sweeps a ladder of single-component bipartite
// graphs growing to ~10^6 demand edges and compares the exact
// water-filling solve against the approximate fast path (ApproxEpsilon/
// ApproxThreshold), reporting per-tier speedup and the measured max
// per-job deviation against the epsilon budget:
//
//	amf-bench -largegraph
//	amf-bench -largegraph -largegraph-epsilon 0.01 -largegraph-out BENCH_largegraph.json
//	amf-bench -largegraph -largegraph-tiers 200:16:4,400:32:8   # smoke sizes
//
// A durability mode measures the acknowledged mutation latency of the
// write-ahead-logged engine against the in-memory engine under the same
// concurrent workload (group commit shares one fsync per batch):
//
//	amf-bench -wal
//	amf-bench -wal -wal-mutators 16 -wal-out BENCH_wal.json
//
// Output is the same Render() text the root-level benchmarks produce, so
// `go test -bench` and this tool can never drift apart.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		runIDs = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		quick  = flag.Bool("quick", false, "reduced sizes and trial counts")
		seed   = flag.Uint64("seed", 0, "workload seed (default 2019)")
		list   = flag.Bool("list", false, "list experiments and exit")
		format = flag.String("format", "text", "output format: text or md")
		outDir = flag.String("out", "", "also write each experiment's report into this directory")

		serveMode    = flag.Bool("serve", false, "run the serving-throughput benchmark instead of experiments")
		serveMut     = flag.Int("serve-mutators", 8, "concurrent mutator goroutines")
		serveReaders = flag.Int("serve-readers", 8, "concurrent reader goroutines")
		serveJobs    = flag.Int("serve-jobs", 64, "preloaded job count")
		serveSites   = flag.Int("serve-sites", 8, "site count")
		serveBatch   = flag.Int("serve-batch", 0, "MaxBatch for the batched configuration (0 = mutator count)")
		serveWindow  = flag.Duration("serve-window", time.Millisecond, "BatchWindow for the batched configuration")
		serveDur     = flag.Duration("serve-dur", 2*time.Second, "measurement duration per configuration")

		decompMode   = flag.Bool("decompose", false, "run the decomposition benchmark (whole-network AMFDiag vs component-parallel solve)")
		decompComps  = flag.Int("decompose-components", 64, "independent components in the sparse instance")
		decompJobs   = flag.Int("decompose-jobs", 16, "jobs per component")
		decompSites  = flag.Int("decompose-sites", 4, "sites per component")
		decompTrials = flag.Int("decompose-trials", 5, "timed solves per path (median reported)")
		decompOut    = flag.String("decompose-out", "", "write machine-readable results to this JSON file (e.g. BENCH_solver.json)")

		walMode     = flag.Bool("wal", false, "run the durability-overhead benchmark (acknowledged mutation latency, WAL vs in-memory)")
		walMutators = flag.Int("wal-mutators", 8, "concurrent mutator goroutines")
		walJobs     = flag.Int("wal-jobs", 256, "preloaded job count")
		walSites    = flag.Int("wal-sites", 16, "site count")
		walOps      = flag.Int("wal-ops", 100, "mutations per mutator")
		walBatch    = flag.Int("wal-batch", 0, "MaxBatch for both configurations (0 = mutator count)")
		walWindow   = flag.Duration("wal-window", time.Millisecond, "BatchWindow for both configurations")
		walDir      = flag.String("wal-dir", "", "WAL directory for the durable pass (default: fresh temp dir)")
		walOut      = flag.String("wal-out", "", "write machine-readable results to this JSON file (e.g. BENCH_wal.json)")

		churnMode      = flag.Bool("churn", false, "run the incremental-churn benchmark (per-commit latency, incremental vs full re-solve)")
		churnComps     = flag.Int("churn-components", 64, "independent components in the sparse instance")
		churnJobs      = flag.Int("churn-jobs", 16, "jobs per component")
		churnSites     = flag.Int("churn-sites", 4, "sites per component")
		churnMutations = flag.Int("churn-mutations", 512, "single-component mutations replayed per configuration")
		churnOut       = flag.String("churn-out", "", "write machine-readable results to this JSON file (e.g. BENCH_incremental.json)")

		zipf = flag.Float64("zipf", 0, "Zipf skew for churn component selection: hit probability ∝ rank^(-s), 0 = uniform (used by -churn, -cluster, and -policybench)")

		polMode      = flag.Bool("policybench", false, "run the fairness-policy comparison benchmark (per-commit latency per policy over one churn stream)")
		polComps     = flag.Int("policybench-components", 16, "independent components in the churned instance")
		polJobs      = flag.Int("policybench-jobs", 4, "jobs per component")
		polSites     = flag.Int("policybench-sites", 3, "sites per component")
		polMutations = flag.Int("policybench-mutations", 256, "mutations replayed per policy")
		polNames     = flag.String("policybench-policies", "", "comma-separated policy subset (default: every registered policy)")
		polOut       = flag.String("policybench-out", "", "write machine-readable results to this JSON file (e.g. BENCH_policy.json)")

		clusterMode      = flag.Bool("cluster", false, "run the cluster read-scaling benchmark (primary + WAL-shipped read replicas)")
		clusterReplicas  = flag.Int("cluster-replicas", 2, "read replicas in the scaled configuration")
		clusterReaders   = flag.Int("cluster-readers", 4, "concurrent HTTP readers per endpoint")
		clusterComps     = flag.Int("cluster-components", 16, "independent components in the churned instance")
		clusterJobs      = flag.Int("cluster-jobs", 4, "jobs per component")
		clusterSites     = flag.Int("cluster-sites", 3, "sites per component")
		clusterDur       = flag.Duration("cluster-dur", 1500*time.Millisecond, "read measurement duration per endpoint")
		clusterWriteIval = flag.Duration("cluster-write-interval", 2*time.Millisecond, "pause between sustained writer mutations")
		clusterOut       = flag.String("cluster-out", "", "write machine-readable results to this JSON file (e.g. BENCH_cluster.json)")

		largeMode   = flag.Bool("largegraph", false, "run the large-graph approximation sweep (exact vs approximate water-filling)")
		largeTiers  = flag.String("largegraph-tiers", "", "jobs:sites:degree triples, comma separated (default: a ladder growing to ~10^6 edges)")
		largeEps    = flag.Float64("largegraph-epsilon", 0.01, "approximation deviation budget as a fraction of instance scale")
		largeTrials = flag.Int("largegraph-trials", 3, "timed approximate solves per tier (median reported; exact runs once)")
		largeOut    = flag.String("largegraph-out", "", "write machine-readable results to this JSON file (e.g. BENCH_largegraph.json)")

		obsMode      = flag.Bool("obs", false, "run the observability-overhead benchmark (per-commit latency, metrics+tracing vs plain)")
		obsComps     = flag.Int("obs-components", 64, "independent components in the sparse instance")
		obsJobs      = flag.Int("obs-jobs", 16, "jobs per component")
		obsSites     = flag.Int("obs-sites", 4, "sites per component")
		obsMutations = flag.Int("obs-mutations", 512, "mutations replayed per configuration")
		obsReps      = flag.Int("obs-reps", 3, "alternating repetitions per configuration (best median kept)")
		obsOut       = flag.String("obs-out", "", "write machine-readable results to this JSON file (e.g. BENCH_obs.json)")
		obsProfile   = flag.String("obs-cpuprofile", "", "write a CPU profile of the instrumented pass to this file")
	)
	flag.Parse()

	if *largeMode {
		if err := runLargegraph(largegraphOptions{
			tiers:   *largeTiers,
			epsilon: *largeEps,
			trials:  *largeTrials,
			seed:    *seed,
			out:     *largeOut,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "amf-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *clusterMode {
		if err := runClusterBench(clusterOptions{
			replicas:   *clusterReplicas,
			readers:    *clusterReaders,
			components: *clusterComps,
			jobs:       *clusterJobs,
			sites:      *clusterSites,
			dur:        *clusterDur,
			writeIval:  *clusterWriteIval,
			zipf:       *zipf,
			seed:       *seed,
			out:        *clusterOut,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "amf-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *obsMode {
		if err := runObsBench(obsOptions{
			components: *obsComps,
			jobs:       *obsJobs,
			sites:      *obsSites,
			mutations:  *obsMutations,
			reps:       *obsReps,
			seed:       *seed,
			out:        *obsOut,
			cpuprofile: *obsProfile,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "amf-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *walMode {
		if err := runWALBench(walbenchOptions{
			mutators: *walMutators,
			jobs:     *walJobs,
			sites:    *walSites,
			ops:      *walOps,
			batchMax: *walBatch,
			window:   *walWindow,
			dir:      *walDir,
			out:      *walOut,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "amf-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *polMode {
		if err := runPolicyBench(policyBenchOptions{
			components: *polComps,
			jobs:       *polJobs,
			sites:      *polSites,
			mutations:  *polMutations,
			zipf:       *zipf,
			seed:       *seed,
			policies:   *polNames,
			out:        *polOut,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "amf-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *churnMode {
		if err := runChurn(churnOptions{
			components: *churnComps,
			jobs:       *churnJobs,
			sites:      *churnSites,
			mutations:  *churnMutations,
			zipf:       *zipf,
			seed:       *seed,
			out:        *churnOut,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "amf-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *decompMode {
		if err := runDecompose(decomposeOptions{
			components: *decompComps,
			jobs:       *decompJobs,
			sites:      *decompSites,
			trials:     *decompTrials,
			seed:       *seed,
			out:        *decompOut,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "amf-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *serveMode {
		if err := runServing(servingOptions{
			mutators: *serveMut,
			readers:  *serveReaders,
			jobs:     *serveJobs,
			sites:    *serveSites,
			batchMax: *serveBatch,
			window:   *serveWindow,
			dur:      *serveDur,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "amf-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range experiments.List() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	opt := experiments.Options{Quick: *quick, Seed: *seed}
	ids := experiments.IDs()
	if *runIDs != "" {
		ids = strings.Split(*runIDs, ",")
	}
	for _, id := range ids {
		start := time.Now()
		r, err := experiments.Run(strings.TrimSpace(id), opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "amf-bench:", err)
			os.Exit(1)
		}
		var body, ext string
		switch *format {
		case "md":
			body, ext = r.RenderMarkdown(), "md"
			fmt.Print(body)
		default:
			body, ext = r.Render(), "txt"
			fmt.Print(body)
			fmt.Printf("(%s completed in %v)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "amf-bench:", err)
				os.Exit(1)
			}
			path := filepath.Join(*outDir, strings.ToLower(r.ID)+"."+ext)
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "amf-bench:", err)
				os.Exit(1)
			}
		}
	}
}
