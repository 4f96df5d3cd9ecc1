// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (experiments E1-E10; see DESIGN.md for the mapping). Each
// benchmark executes the corresponding experiment end to end — workload
// generation, all policies, all metrics — and reports the rendered
// table/series through b.Log on the first iteration, so that
//
//	go test -bench=E -benchtime=1x -v
//
// regenerates the full evaluation. Microbenchmarks for the allocator and
// the max-flow core follow below.
package repro_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/maxflow"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	opt := experiments.Options{}
	if testing.Short() {
		opt.Quick = true
	}
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(id, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

// BenchmarkE1AllocationBalance regenerates Fig E1a/E1b: Jain index and
// min/max ratio of aggregate allocations vs. workload skew.
func BenchmarkE1AllocationBalance(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2AllocationCDF regenerates Fig E2: the CDF of aggregate
// allocations under high skew.
func BenchmarkE2AllocationCDF(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3CompletionTime regenerates Fig E3a/E3b: batch job completion
// times vs. skew under each policy.
func BenchmarkE3CompletionTime(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4Properties regenerates Table E4: empirical verification of
// the fairness properties.
func BenchmarkE4Properties(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5SharingIncentive regenerates Fig E5a-E5c: sharing-incentive
// violations on the endowment family and organically.
func BenchmarkE5SharingIncentive(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6EnhancedCost regenerates Fig E6a-E6c: the price of the
// sharing-incentive enhancement.
func BenchmarkE6EnhancedCost(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7AddonBenefit regenerates Fig E7a-E7c: completion-time stretch
// with and without the add-on.
func BenchmarkE7AddonBenefit(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8OnlineSimulation regenerates Table E8: online JCT and
// utilization vs. offered load.
func BenchmarkE8OnlineSimulation(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9Scalability regenerates Table E9: allocator wall time,
// Newton vs. bisection.
func BenchmarkE9Scalability(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10SlotFluidCrossCheck regenerates Table E10: slot-granular vs.
// fluid simulator agreement.
func BenchmarkE10SlotFluidCrossCheck(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkX2ReallocAblation regenerates Fig X2: the re-allocation
// frequency (staleness) ablation.
func BenchmarkX2ReallocAblation(b *testing.B) { benchExperiment(b, "X2") }

// BenchmarkX3LocalityRelaxation regenerates Fig X3a/X3b: the remote
// spillover (locality relaxation) extension.
func BenchmarkX3LocalityRelaxation(b *testing.B) { benchExperiment(b, "X3") }

// --- Microbenchmarks -----------------------------------------------------

func benchInstance(n, m int, skew float64) *core.Instance {
	return workload.Generate(workload.Config{
		NumJobs:      n,
		NumSites:     m,
		SiteCapacity: 1,
		Skew:         skew,
		PerJobSkew:   true,
		MeanDemand:   3 * float64(m) / float64(n),
		SizeDist:     workload.SizeBoundedPareto,
		Seed:         uint64(n)*31 + uint64(m),
	})
}

func benchmarkAMF(b *testing.B, n, m int, method core.Method) {
	in := benchInstance(n, m, 1.2)
	sv := &core.Solver{Method: method}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sv.AMF(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAMFNewton100x20(b *testing.B) { benchmarkAMF(b, 100, 20, core.MethodNewton) }
func BenchmarkAMFNewton400x40(b *testing.B) { benchmarkAMF(b, 400, 40, core.MethodNewton) }
func BenchmarkAMFBisect100x20(b *testing.B) { benchmarkAMF(b, 100, 20, core.MethodBisect) }
func BenchmarkAMFBisect400x40(b *testing.B) { benchmarkAMF(b, 400, 40, core.MethodBisect) }

func BenchmarkEnhancedAMF100x20(b *testing.B) {
	in := benchInstance(100, 20, 1.2)
	sv := core.NewSolver()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sv.EnhancedAMF(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPerSiteMMF100x20(b *testing.B) {
	in := benchInstance(100, 20, 1.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.PerSiteMMF(in)
	}
}

func BenchmarkOptimizeJCT60x10(b *testing.B) {
	in := benchInstance(60, 10, 1.2)
	sv := core.NewSolver()
	base, err := sv.AMF(in)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sv.OptimizeJCT(base); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSolveSparse solves a block-diagonal instance (64 components of
// 16 jobs over 4 sites each) repeatedly with one warm solver. Monolithic
// solves the whole network (AMFDiag); the decomposed path solves the
// components in parallel, so the Mono/Decomposed ratio is the
// decomposition win tracked by BENCH runs.
func benchSolveSparse(b *testing.B, monolithic bool) {
	in := workload.GenerateSparse(workload.SparseConfig{
		Components:        64,
		JobsPerComponent:  16,
		SitesPerComponent: 4,
		Seed:              7,
	})
	sv := &core.Solver{SkipJCTRefine: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if monolithic {
			_, _, err = sv.AMFDiag(in)
		} else {
			_, err = sv.AMF(in)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := sv.LastStats(); !monolithic {
		b.ReportMetric(float64(st.Components), "components")
		b.ReportMetric(st.Speedup, "speedup")
	}
}

func BenchmarkSolveSparseMono(b *testing.B)       { benchSolveSparse(b, true) }
func BenchmarkSolveSparseDecomposed(b *testing.B) { benchSolveSparse(b, false) }

// ringDemand chains job j to sites j and j+1 (mod sites), coupling the
// whole instance into one component.
func ringDemand(j, sites int) []float64 {
	demand := make([]float64, sites)
	demand[j%sites] = 2
	demand[(j+1)%sites] = 1
	return demand
}

// pairedDemand confines job j to the disjoint site pair 2k/2k+1, so the
// instance splits into sites/2 independent components.
func pairedDemand(j, sites int) []float64 {
	demand := make([]float64, sites)
	pair := 2 * (j % (sites / 2))
	demand[pair] = 2
	demand[pair+1] = 1
	return demand
}

// benchServe measures serving-engine mutation throughput under 8
// concurrent mutators and 8 polling readers. Batched uses group commit
// (a batch the size of the mutator pool, bounded by a 1ms window);
// unbatched solves once per mutation. ns/op is per mutation, so the
// batched/unbatched ratio is the group-commit win tracked by BENCH runs.
func benchServe(b *testing.B, maxBatch int, window time.Duration, demandFor func(j, sites int) []float64) {
	const (
		mutators = 8
		readers  = 8
		jobs     = 64
		sites    = 8
	)
	caps := make([]float64, sites)
	for s := range caps {
		caps[s] = jobs / sites
	}
	sc, err := scheduler.New(scheduler.Config{SiteCapacity: caps})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := serve.New(sc, serve.Config{MaxBatch: maxBatch, BatchWindow: window})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	for j := 0; j < jobs; j++ {
		if err := eng.AddJob(context.Background(), fmt.Sprintf("job-%d", j), 1, demandFor(j, sites), nil); err != nil {
			b.Fatal(err)
		}
	}

	var stop atomic.Bool
	var readerWG sync.WaitGroup
	var readOps atomic.Int64
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for !stop.Load() {
				_ = eng.Current()
				readOps.Add(1)
				time.Sleep(250 * time.Microsecond)
			}
		}()
	}

	per := (b.N + mutators - 1) / mutators
	b.ResetTimer()
	var mutWG sync.WaitGroup
	for w := 0; w < mutators; w++ {
		mutWG.Add(1)
		go func(w int) {
			defer mutWG.Done()
			for i := 0; i < per; i++ {
				id := fmt.Sprintf("job-%d", (w+i*mutators)%jobs)
				// Cycle weights so every mutation dirties the allocation.
				weight := 1 + float64((i*7+w*3)%13)/13
				if err := eng.UpdateWeight(context.Background(), id, weight); err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	mutWG.Wait()
	b.StopTimer()
	stop.Store(true)
	readerWG.Wait()
	st := sc.Stats()
	b.ReportMetric(float64(mutators*per)/float64(st.Solves), "mutations/solve")
	b.ReportMetric(float64(readOps.Load())/b.Elapsed().Seconds(), "reads/s")
}

// BenchmarkServeBatched is the engine with group commit enabled.
func BenchmarkServeBatched(b *testing.B) { benchServe(b, 8, time.Millisecond, ringDemand) }

// BenchmarkServeUnbatched solves once per mutation (the pre-engine
// behavior) for comparison.
func BenchmarkServeUnbatched(b *testing.B) { benchServe(b, 1, 0, ringDemand) }

// BenchmarkServeBatchedDecomposed is group commit over a multi-component
// workload, so each batch re-solve takes the decomposed-parallel path.
func BenchmarkServeBatchedDecomposed(b *testing.B) {
	benchServe(b, 8, time.Millisecond, pairedDemand)
}

// benchEngineTarget adapts the context-aware engine to the ctx-less churn
// replay interface.
type benchEngineTarget struct{ eng *serve.Engine }

func (t benchEngineTarget) AddJob(id string, weight float64, demand, work []float64) error {
	return t.eng.AddJob(context.Background(), id, weight, demand, work)
}

func (t benchEngineTarget) RemoveJob(id string) error {
	return t.eng.RemoveJob(context.Background(), id)
}

func (t benchEngineTarget) UpdateWeight(id string, weight float64) error {
	return t.eng.UpdateWeight(context.Background(), id, weight)
}

func (t benchEngineTarget) ReportProgress(id string, done []float64) (bool, error) {
	return t.eng.ReportProgress(context.Background(), id, done)
}

// benchServeChurn drives a generated churn stream — component-local
// mutations over a 64-component sparse instance — through an unbatched
// engine, so ns/op is the per-mutation commit latency (enqueue → solve →
// snapshot publish). The incremental variant re-solves only the mutated
// component and splices cached rows for the rest; the full-resolve
// variant re-solves every component per commit.
func benchServeChurn(b *testing.B, disableIncremental bool) {
	ch := workload.GenerateChurn(workload.ChurnConfig{
		Sparse:    workload.SparseConfig{Components: 64, JobsPerComponent: 16, SitesPerComponent: 4, Seed: 7},
		Mutations: 4096,
		Seed:      11,
	})
	sc, err := scheduler.New(scheduler.Config{
		SiteCapacity:       ch.Inst.SiteCapacity,
		DisableIncremental: disableIncremental,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Populate before the engine exists: the adds stay lazy and the
	// engine's initial publish performs the single warm-up solve.
	if err := ch.Populate(sc); err != nil {
		b.Fatal(err)
	}
	eng, err := serve.New(sc, serve.Config{MaxBatch: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Cyclic replay can re-add a live transient or re-remove an
		// evicted one; those rejections are expected and free.
		if err := ch.Ops[i%len(ch.Ops)].Apply(benchEngineTarget{eng: eng}); err != nil &&
			!errors.Is(err, scheduler.ErrUnknownJob) &&
			!errors.Is(err, scheduler.ErrDuplicateJob) {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := sc.Stats()
	b.ReportMetric(float64(st.LastReused), "reused")
	b.ReportMetric(float64(st.LastResolved), "resolved")
}

// BenchmarkServeChurnIncremental commits single-component mutations with
// dirty-component tracking enabled.
func BenchmarkServeChurnIncremental(b *testing.B) { benchServeChurn(b, false) }

// BenchmarkServeChurnFullResolve is the same stream with incremental
// solving disabled: every commit re-solves the whole instance.
func BenchmarkServeChurnFullResolve(b *testing.B) { benchServeChurn(b, true) }

// BenchmarkServeChurnCommit is the commit path on the bench's
// churn_sparse shape (64 components x 16 jobs x 4 sites = 1024 jobs over
// 256 sites): weight updates only, each dirtying one 16-job component,
// through a real unbatched serve.Engine with no WAL. ns/op is one commit
// — apply, incremental solve, share-map and shell carry, publish, gauge
// refresh — and B/op is what a commit allocates, so anything that walks
// or rebuilds the whole job set per commit shows up here.
func BenchmarkServeChurnCommit(b *testing.B) {
	in := workload.GenerateChurn(workload.ChurnConfig{
		Sparse:    workload.SparseConfig{Components: 64, JobsPerComponent: 16, SitesPerComponent: 4, Seed: 2019},
		Mutations: 1,
		Seed:      2019,
	}).Inst
	sc, err := scheduler.New(scheduler.Config{SiteCapacity: in.SiteCapacity})
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]scheduler.JobSpec, len(in.JobName))
	for j, name := range in.JobName {
		specs[j] = scheduler.JobSpec{ID: name, Weight: 1, Demand: in.Demand[j], Work: in.Work[j]}
	}
	if err := sc.AddJobs(specs); err != nil {
		b.Fatal(err)
	}
	eng, err := serve.New(sc, serve.Config{MaxBatch: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	n := len(in.JobName)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Stride 17 walks every component; the weight alternates between
		// 2 and 3 per lap so every update changes the job and dirties it.
		if err := eng.UpdateWeight(ctx, in.JobName[i*17%n], float64(2+(i/n)%2)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := sc.Stats()
	b.ReportMetric(float64(st.LastReused), "reused")
	b.ReportMetric(float64(st.LastResolved), "resolved")
}

func BenchmarkMaxFlowBipartite(b *testing.B) {
	in := benchInstance(200, 20, 1.2)
	n, m := in.NumJobs(), in.NumSites()
	g := maxflow.New(2 + n + m)
	src, sink := 0, 1+n+m
	for j := 0; j < n; j++ {
		g.AddEdge(src, 1+j, in.TotalDemand(j))
		for s := 0; s < m; s++ {
			if d := in.Demand[j][s]; d > 0 {
				g.AddEdge(1+j, 1+n+s, d)
			}
		}
	}
	for s := 0; s < m; s++ {
		g.AddEdge(1+n+s, sink, in.SiteCapacity[s])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Reset()
		g.MaxFlow(src, sink)
	}
}

func BenchmarkFluidSimulation(b *testing.B) {
	jobs := workload.GenerateStream(workload.StreamConfig{
		NumSites: 4, Lambda: 2, NumJobs: 60, Skew: 1.2, PerJobSkew: true,
		TasksPerJobMean: 6, SitesPerJobMax: 3, Seed: 5,
	})
	solver := &core.Solver{SkipJCTRefine: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunFluid(sim.FluidConfig{
			SiteCapacity: []float64{4, 4, 4, 4},
			Policy:       sim.PolicyAMF,
			Solver:       solver,
		}, jobs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSlotSimulation(b *testing.B) {
	jobs := workload.GenerateStream(workload.StreamConfig{
		NumSites: 4, Lambda: 2, NumJobs: 40, Skew: 1.2, PerJobSkew: true,
		TasksPerJobMean: 6, SitesPerJobMax: 3, Seed: 5,
	})
	solver := &core.Solver{SkipJCTRefine: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunSlots(sim.SlotConfig{
			SlotsPerSite: []int{4, 4, 4, 4},
			Policy:       sim.PolicyAMF,
			Solver:       solver,
		}, jobs); err != nil {
			b.Fatal(err)
		}
	}
}
