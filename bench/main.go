// Command bench is the repository's benchmark: it drives a real
// amf-server process over loopback HTTP with an open-loop and then a
// closed-loop request stream, checks that what the server serves is the
// max-min fair allocation of what it acknowledged, and prints every metric
// by name. With -trace 1 it assembles the same stack in-process and
// reports per-layer metrics from spans and layer replays. README.md has
// the metric and workload catalogue; BENCHMARK.json has the contract.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

func main() {
	var (
		workloadArg = flag.String("workload", "all", "workload name, comma-separated names, or all")
		seed        = flag.Uint64("seed", 2019, "seed of the traffic: arrival schedule, order of requests, which jobs are read (instance and mutation content are frozen)")
		seconds     = flag.Float64("seconds", 24, "measured seconds per run (BENCHMARK.json run_seconds)")
		trace       = flag.Int("trace", 0, "1 = traced in-process run reporting the per-layer metrics")
		repeat      = flag.Int("repeat", 1, "runs per workload, at seed, seed+1, ...; prints medians, quartiles and spread")
		smoke       = flag.Bool("smoke", false, "tiny instances and a 2 s run")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *workloadArg, *seed, *seconds, *trace != 0, *repeat, *smoke); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func selectWorkloads(arg string) ([]workloadSpec, error) {
	if arg == "all" {
		return workloads, nil
	}
	var out []workloadSpec
	for _, name := range strings.Split(arg, ",") {
		w, err := findWorkload(name)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

func run(ctx context.Context, workloadArg string, seed uint64, seconds float64, traced bool, repeat int, smoke bool) error {
	selected, err := selectWorkloads(workloadArg)
	if err != nil {
		return err
	}
	p, err := findPaths()
	if err != nil {
		return err
	}
	if smoke {
		seconds = 2
	}
	if !traced {
		d, err := p.buildServer()
		if err != nil {
			return err
		}
		fmt.Printf("build_s %.3f s\n", d.Seconds())
	}
	catalogue := endToEnd
	if traced {
		catalogue = perLayer
	}
	ok := true
	for _, w := range selected {
		if smoke {
			w = w.smoke()
		}
		var results []*runResult
		for i := 0; i < repeat; i++ {
			cfg := runConfig{Seed: seed + uint64(i), Seconds: seconds, Smoke: smoke}
			var res *runResult
			if traced {
				res, err = runTraced(ctx, p, w, cfg)
			} else {
				res, err = runServer(ctx, p, w, cfg)
			}
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, cfg.Seed, err)
			}
			if err := report(p, res, catalogue); err != nil {
				return err
			}
			ok = ok && res.Correct && res.Failed == 0
			results = append(results, res)
		}
		if repeat > 1 {
			summarize(w.Name, results, catalogue)
		}
	}
	if !ok {
		return fmt.Errorf("a run failed its correctness gate or had failed requests")
	}
	return nil
}

// resultLine is the last line a run prints: the form BENCHMARK.json's
// driver reads.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints one run — every metric by name with its unit and, where it
// has them, its sample count and the percentile reported; then what is
// measured but not catalogued; then the result line — and stores the run as
// bench/out/result-<workload>-<seed>[-traced].json.
func report(p paths, res *runResult, catalogue []metricSpec) error {
	fmt.Printf("# %s seed=%d traced=%t\n", res.Workload, res.Seed, res.Traced)
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, ms := range catalogue {
		v, found := res.Metrics[ms.Name]
		if !found {
			return fmt.Errorf("%s: metric %s was not measured", res.Workload, ms.Name)
		}
		row := fmt.Sprintf("%s %s %.6g %s", res.Workload, ms.Name, v, ms.Unit)
		if note := res.Notes[ms.Name]; note != "" {
			row += " " + note
		}
		fmt.Println(row)
		line.Metrics[ms.Name] = metricValue{v, ms.Unit}
	}
	info := make([]string, 0, len(res.Info))
	for name := range res.Info {
		info = append(info, name)
	}
	sort.Strings(info)
	for _, name := range info {
		fmt.Printf("%s info %s %.6g\n", res.Workload, name, res.Info[name])
	}
	if res.Problem != "" {
		fmt.Printf("%s INCORRECT %s\n", res.Workload, res.Problem)
	}
	name := fmt.Sprintf("result-%s-%d.json", res.Workload, res.Seed)
	if res.Traced {
		name = fmt.Sprintf("result-%s-%d-traced.json", res.Workload, res.Seed)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(p.out, name), data, 0o644); err != nil {
		return err
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// summarize prints, per metric, the median, quartiles and spread (IQR ÷
// median) over the runs beside the metric's bound: the check that the
// benchmark repeats.
func summarize(workload string, results []*runResult, catalogue []metricSpec) {
	fmt.Printf("# %s over %d runs: median q1 q3 spread bound\n", workload, len(results))
	for _, ms := range catalogue {
		var v []float64
		for _, r := range results {
			v = append(v, r.Metrics[ms.Name])
		}
		q1, q2, q3 := quartiles(v)
		flag := ""
		if ms.Bound > 0 && spread(v) > ms.Bound {
			flag = " UNSTEADY"
		}
		fmt.Printf("%s summary %s %.6g %.6g %.6g %.4f %.2f%s\n", workload, ms.Name, q2, q1, q3, spread(v), ms.Bound, flag)
	}
}
