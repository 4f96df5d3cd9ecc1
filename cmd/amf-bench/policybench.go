package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/workload"
)

// policyBenchOptions parameterizes the policy comparison benchmark
// (-policybench): replay the SAME zipf-skewed churn stream through one
// serving engine per fairness policy and compare per-commit latency and
// cache behaviour across disciplines.
type policyBenchOptions struct {
	components int
	jobs       int // per component
	sites      int // per component
	mutations  int
	zipf       float64
	seed       uint64
	policies   string // comma-separated subset ("" = all registered)
	out        string // JSON results path ("" = skip)
}

// policyBenchRow is one policy's measurement in the -policybench-out
// JSON file (BENCH_policy.json in CI).
type policyBenchRow struct {
	Policy         string  `json:"policy"`
	MedianCommitNS int64   `json:"median_commit_ns"`
	P99CommitNS    int64   `json:"p99_commit_ns"`
	LastReused     int     `json:"last_reused"`
	LastResolved   int     `json:"last_resolved"`
	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	CacheHitRatio  float64 `json:"cache_hit_ratio"`
}

// policyBenchResult is the machine-readable record for the whole sweep.
type policyBenchResult struct {
	Benchmark         string           `json:"benchmark"`
	Env               benchEnv         `json:"env"`
	Components        int              `json:"components"`
	JobsPerComponent  int              `json:"jobs_per_component"`
	SitesPerComponent int              `json:"sites_per_component"`
	Mutations         int              `json:"mutations"`
	ZipfSkew          float64          `json:"zipf_skew"`
	GOMAXPROCS        int              `json:"gomaxprocs"`
	Policies          []policyBenchRow `json:"policies"`
}

// runPolicyBench replays one generated churn stream through each
// requested policy, prints a comparison table, and optionally writes the
// JSON record.
func runPolicyBench(o policyBenchOptions) error {
	names := policy.Names()
	if o.policies != "" {
		names = nil
		for _, n := range strings.Split(o.policies, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	}

	ch := workload.GenerateChurn(workload.ChurnConfig{
		Sparse: workload.SparseConfig{
			Components:        o.components,
			JobsPerComponent:  o.jobs,
			SitesPerComponent: o.sites,
			Seed:              o.seed,
		},
		Mutations: o.mutations,
		Seed:      o.seed + 1,
		ZipfSkew:  o.zipf,
	})

	res := policyBenchResult{
		Benchmark:         "policy_churn",
		Env:               captureEnv(),
		Components:        o.components,
		JobsPerComponent:  o.jobs,
		SitesPerComponent: o.sites,
		Mutations:         o.mutations,
		ZipfSkew:          o.zipf,
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
	}

	fmt.Printf("Policy benchmark: %d components x %d jobs x %d sites, %d mutations (zipf %.2f), GOMAXPROCS=%d\n\n",
		o.components, o.jobs, o.sites, o.mutations, o.zipf, res.GOMAXPROCS)
	fmt.Printf("%-14s %14s %14s %12s\n", "policy", "median commit", "p99 commit", "cache hit%")

	for _, name := range names {
		pol, err := policy.ForName(name)
		if err != nil {
			return err
		}
		row, err := policyBenchPass(ch, pol)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		res.Policies = append(res.Policies, row)
		hit := "-"
		if row.CacheHits+row.CacheMisses > 0 {
			hit = fmt.Sprintf("%.1f%%", 100*row.CacheHitRatio)
		}
		fmt.Printf("%-14s %14v %14v %12s\n", name,
			time.Duration(row.MedianCommitNS).Round(time.Microsecond),
			time.Duration(row.P99CommitNS).Round(time.Microsecond), hit)
	}

	if o.out != "" {
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", o.out)
	}
	return nil
}

// policyBenchPass replays the stream through an unbatched engine running
// the given policy (one commit per mutation) and collects the latency
// distribution plus the controller's final cache stats.
func policyBenchPass(ch *workload.Churn, pol policy.Policy) (policyBenchRow, error) {
	sc, err := scheduler.New(scheduler.Config{
		SiteCapacity: ch.Inst.SiteCapacity,
		Policy:       pol,
	})
	if err != nil {
		return policyBenchRow{}, err
	}
	if err := ch.Populate(sc); err != nil {
		return policyBenchRow{}, err
	}
	eng, err := serve.New(sc, serve.Config{MaxBatch: 1})
	if err != nil {
		return policyBenchRow{}, err
	}
	defer eng.Close()

	target := engineTarget{eng: eng}
	times := make([]int64, 0, len(ch.Ops))
	for _, op := range ch.Ops {
		start := time.Now()
		err := op.Apply(target)
		if err != nil && !errors.Is(err, scheduler.ErrUnknownJob) && !errors.Is(err, scheduler.ErrDuplicateJob) {
			return policyBenchRow{}, err
		}
		times = append(times, time.Since(start).Nanoseconds())
	}
	sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
	st := sc.Stats()
	row := policyBenchRow{
		Policy:         pol.Name(),
		MedianCommitNS: times[len(times)/2],
		P99CommitNS:    times[len(times)*99/100],
		LastReused:     st.LastReused,
		LastResolved:   st.LastResolved,
		CacheHits:      st.CacheHits,
		CacheMisses:    st.CacheMisses,
	}
	if total := st.CacheHits + st.CacheMisses; total > 0 {
		row.CacheHitRatio = float64(st.CacheHits) / float64(total)
	}
	return row, nil
}
