package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// decomposeOptions parameterizes the decomposition benchmark
// (-decompose): solve the same block-diagonal sparse instance as one
// whole network (AMFDiag, the reference without decomposition) and with
// the component-decomposed parallel path (AMF), and report the ratio.
type decomposeOptions struct {
	components int
	jobs       int // per component
	sites      int // per component
	trials     int
	seed       uint64
	out        string // JSON results path ("" = skip)
}

// decomposeResult is the machine-readable benchmark record written to
// the -decompose-out JSON file (BENCH_solver.json in CI).
type decomposeResult struct {
	Benchmark         string   `json:"benchmark"`
	Env               benchEnv `json:"env"`
	Components        int      `json:"components"`
	JobsPerComponent  int      `json:"jobs_per_component"`
	SitesPerComponent int      `json:"sites_per_component"`
	Trials            int      `json:"trials"`
	GOMAXPROCS        int      `json:"gomaxprocs"`
	MonoMedianNS      int64    `json:"mono_median_ns"`
	DecompMedianNS    int64    `json:"decomposed_median_ns"`
	Ratio             float64  `json:"mono_over_decomposed"`
	SolvedComponents  int      `json:"solved_components"`
	LargestComponent  int      `json:"largest_component"`
	ParallelSpeedup   float64  `json:"parallel_speedup"`
}

// runDecompose times both solver paths over the same warm solver per
// mode, prints a comparison, and optionally writes the JSON record.
func runDecompose(o decomposeOptions) error {
	in := workload.GenerateSparse(workload.SparseConfig{
		Components:        o.components,
		JobsPerComponent:  o.jobs,
		SitesPerComponent: o.sites,
		Seed:              o.seed,
	})
	mono := &core.Solver{SkipJCTRefine: true}
	dec := &core.Solver{SkipJCTRefine: true}

	monoNS, err := timeSolves(func() error {
		_, _, err := mono.AMFDiag(in)
		return err
	}, o.trials)
	if err != nil {
		return err
	}
	decNS, err := timeSolves(func() error {
		_, err := dec.AMF(in)
		return err
	}, o.trials)
	if err != nil {
		return err
	}
	st := dec.LastStats()

	res := decomposeResult{
		Benchmark:         "decompose",
		Env:               captureEnv(),
		Components:        o.components,
		JobsPerComponent:  o.jobs,
		SitesPerComponent: o.sites,
		Trials:            o.trials,
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		MonoMedianNS:      monoNS,
		DecompMedianNS:    decNS,
		Ratio:             float64(monoNS) / float64(decNS),
		SolvedComponents:  st.Components,
		LargestComponent:  st.LargestComponent,
		ParallelSpeedup:   st.Speedup,
	}

	fmt.Printf("Decomposition benchmark: %d components x %d jobs x %d sites, %d trials, GOMAXPROCS=%d\n\n",
		o.components, o.jobs, o.sites, o.trials, res.GOMAXPROCS)
	fmt.Printf("%-32s %16s\n", "path", "median solve")
	fmt.Printf("%-32s %16v\n", "whole network (AMFDiag)", time.Duration(monoNS).Round(time.Microsecond))
	fmt.Printf("%-32s %16v\n", "decomposed (AMF)", time.Duration(decNS).Round(time.Microsecond))
	fmt.Printf("\nwhole-network/decomposed: %.2fx  (components=%d largest=%d parallel speedup=%.2fx)\n",
		res.Ratio, st.Components, st.LargestComponent, st.Speedup)

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

// timeSolves returns the median wall time of trials solves on a warm
// solver (one untimed warm-up populates the scratch pool first).
func timeSolves(solve func() error, trials int) (int64, error) {
	if err := solve(); err != nil {
		return 0, err
	}
	times := make([]int64, 0, trials)
	for i := 0; i < trials; i++ {
		start := time.Now()
		if err := solve(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Nanoseconds())
	}
	sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
	return times[len(times)/2], nil
}
