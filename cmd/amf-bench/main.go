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
// A decomposition mode compares the whole-network solve (AMFDiag) against
// the component-decomposed parallel path on a block-diagonal sparse
// instance, optionally emitting machine-readable results:
//
//	amf-bench -decompose
//	amf-bench -decompose -decompose-components 128 -decompose-out BENCH_solver.json
//
// A cluster mode measures read-throughput scaling with WAL-shipped read
// replicas: a durable primary under sustained churn ships its log to N
// replicas and each endpoint's saturated HTTP read rate is measured in
// isolation, along with the replicas' worst observed lag:
//
//	amf-bench -cluster
//	amf-bench -cluster -cluster-replicas 2 -cluster-out BENCH_cluster.json
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

		decompMode   = flag.Bool("decompose", false, "run the decomposition benchmark (whole-network AMFDiag vs component-parallel solve)")
		decompComps  = flag.Int("decompose-components", 64, "independent components in the sparse instance")
		decompJobs   = flag.Int("decompose-jobs", 16, "jobs per component")
		decompSites  = flag.Int("decompose-sites", 4, "sites per component")
		decompTrials = flag.Int("decompose-trials", 5, "timed solves per path (median reported)")
		decompOut    = flag.String("decompose-out", "", "write machine-readable results to this JSON file (e.g. BENCH_solver.json)")

		zipf = flag.Float64("zipf", 0, "Zipf skew for churn component selection: hit probability ∝ rank^(-s), 0 = uniform (used by -cluster and -policybench)")

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
