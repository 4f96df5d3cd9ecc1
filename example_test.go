package repro_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro"
	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/spill"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The motivating scenario: a job pinned to a contested site is compensated
// nowhere under per-site fairness; AMF balances aggregates instead.
func Example() {
	in := &repro.Instance{
		SiteCapacity: []float64{1, 1},
		Demand: [][]float64{
			{1, 1}, // flexible job
			{1, 0}, // pinned job
		},
	}
	alloc, err := repro.NewSolver().AMF(in)
	if err != nil {
		panic(err)
	}
	baseline := repro.PerSiteMMF(in)
	fmt.Printf("per-site: flexible=%.1f pinned=%.1f\n",
		baseline.Aggregate(0), baseline.Aggregate(1))
	fmt.Printf("AMF:      flexible=%.1f pinned=%.1f\n",
		alloc.Aggregate(0), alloc.Aggregate(1))
	// Output:
	// per-site: flexible=1.5 pinned=0.5
	// AMF:      flexible=1.0 pinned=1.0
}

// Weighted max-min fairness: shares scale with job weights.
func ExampleSolver_AMF_weighted() {
	in := &repro.Instance{
		SiteCapacity: []float64{6},
		Demand:       [][]float64{{10}, {10}},
		Weight:       []float64{1, 2},
	}
	alloc, err := repro.NewSolver().AMF(in)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%.0f %.0f\n", alloc.Aggregate(0), alloc.Aggregate(1))
	// Output: 2 4
}

// Enhanced AMF guarantees every job its isolated equal share; plain AMF
// can fall short on adversarial instances.
func ExampleSolver_EnhancedAMF() {
	in := &repro.Instance{
		SiteCapacity: []float64{10, 0.2},
		Demand: [][]float64{
			{0.9, 1}, // endowed job: private site + contested claim
			{0, 1},
			{0, 1},
		},
	}
	sv := repro.NewSolver()
	amf, _ := sv.AMF(in)
	enh, _ := sv.EnhancedAMF(in)
	es := repro.EqualShares(in)
	fmt.Printf("equal share %.4f, AMF %.4f, enhanced %.4f\n",
		es[0], amf.Aggregate(0), enh.Aggregate(0))
	// Output: equal share 0.9667, AMF 0.9000, enhanced 0.9667
}

// EqualShares is the sharing-incentive benchmark: what each job would get
// from an equal split of every site.
func ExampleEqualShares() {
	in := &repro.Instance{
		SiteCapacity: []float64{4, 2},
		Demand: [][]float64{
			{4, 2},
			{1, 0},
		},
	}
	fmt.Println(repro.EqualShares(in))
	// Output: [3 1]
}

// The completion-time add-on rebalances each job's per-site split without
// changing its fair aggregate.
func ExampleSolver_AMFWithJCT() {
	in := &repro.Instance{
		SiteCapacity: []float64{1, 1},
		Demand: [][]float64{
			{1, 1},
			{1, 1},
		},
	}
	alloc, err := repro.NewSolver().AMFWithJCT(in)
	if err != nil {
		panic(err)
	}
	fmt.Printf("aggregates: %.1f %.1f, stretch: %.2f %.2f\n",
		alloc.Aggregate(0), alloc.Aggregate(1),
		alloc.Stretch(0), alloc.Stretch(1))
	// Output: aggregates: 1.0 1.0, stretch: 1.00 1.00
}

// Quickstart: the motivating scenario with names, the per-site split and
// the paper's fairness properties checked on the result. Per-site
// fairness gives the flexible job 1.5 units in aggregate and the pinned
// job 0.5; AMF routes the flexible job to site B so both end at 1.0.
func Example_quickstart() {
	in := &repro.Instance{
		SiteName:     []string{"site-A", "site-B"},
		SiteCapacity: []float64{1, 1},
		JobName:      []string{"flexible", "pinned"},
		Demand: [][]float64{
			{1, 1}, // flexible: can use either site
			{1, 0}, // pinned: data locality ties it to site A
		},
	}
	amf, err := repro.NewSolver().AMF(in)
	if err != nil {
		panic(err)
	}
	baseline := repro.PerSiteMMF(in)

	fmt.Println("          per-site MMF     AMF")
	for j, name := range in.JobName {
		fmt.Printf("%-9s %12.3f %7.3f\n", name, baseline.Aggregate(j), amf.Aggregate(j))
	}
	fmt.Println("AMF per-site split:")
	for j, name := range in.JobName {
		for s, site := range in.SiteName {
			if amf.Share[j][s] > 0 {
				fmt.Printf("  %-9s gets %.3f at %s\n", name, amf.Share[j][s], site)
			}
		}
	}
	_, unfair := repro.AggregateMaxMinViolation(amf, 1e-4)
	fmt.Println("pareto efficient: ", repro.IsParetoEfficient(amf, 1e-6))
	fmt.Println("aggregate max-min:", !unfair)
	fmt.Println("envy pairs:       ", repro.EnvyPairs(amf, 1e-6))
	// Output:
	//           per-site MMF     AMF
	// flexible         1.500   1.000
	// pinned           0.500   1.000
	// AMF per-site split:
	//   flexible  gets 1.000 at site-B
	//   pinned    gets 1.000 at site-A
	// pareto efficient:  true
	// aggregate max-min: true
	// envy pairs:        []
}

// A live controller: the scheduler is the surface a cluster manager
// embeds. Jobs come and go, executors report progress, and the shares are
// re-solved only when the demand topology changes. The pinned training
// job holds all of site 0 once the flexible ETL job can be served at
// site 1 alone.
func Example_controller() {
	sc, err := scheduler.New(scheduler.Config{
		SiteCapacity: []float64{4, 4}, // two sites, 4 slots each
		Policy:       policy.AMF,
	})
	if err != nil {
		panic(err)
	}
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	show := func(when string) {
		alloc, err := sc.Allocation()
		must(err)
		fmt.Printf("%-27s", when)
		for _, id := range []string{"etl", "training", "adhoc"} {
			if sh, ok := alloc[id]; ok {
				fmt.Printf(" %s=%.2f", id, sh[0]+sh[1])
			}
		}
		fmt.Println()
	}

	// An ETL job lands with work at both sites.
	must(sc.AddJob("etl", 1, []float64{4, 4}, []float64{20, 20}))
	show("etl arrives:")
	// A training job lands, pinned to site 0 (its data lives there).
	must(sc.AddJob("training", 1, []float64{4, 0}, []float64{30, 0}))
	show("training arrives (pinned):")
	// Progress reports do not churn the allocation...
	for i := 0; i < 3; i++ {
		_, err = sc.ReportProgress("etl", []float64{2, 2})
		must(err)
	}
	show("after etl progress:")
	// ...until a topology change: etl finishes its site-0 work.
	_, err = sc.ReportProgress("etl", []float64{8, 0})
	must(err)
	show("etl done at site 0:")
	// A weighted ad-hoc query arrives and leaves.
	must(sc.AddJob("adhoc", 2, []float64{2, 2}, nil))
	show("weighted adhoc arrives:")
	must(sc.RemoveJob("adhoc"))
	show("adhoc cancelled:")

	st := sc.Stats()
	fmt.Printf("%d solves, %d cached queries, %d active jobs\n", st.Solves, st.Skipped, st.Jobs)
	// Output:
	// etl arrives:                etl=8.00
	// training arrives (pinned):  etl=4.00 training=4.00
	// after etl progress:         etl=4.00 training=4.00
	// etl done at site 0:         etl=4.00 training=4.00
	// weighted adhoc arrives:     etl=2.00 training=2.00 adhoc=4.00
	// adhoc cancelled:            etl=4.00 training=4.00
	// 4 solves, 2 cached queries, 2 active jobs
}

// Cluster federation with sharing guarantees: three organizations pool
// private clusters and small claims on two scarce shared clusters, where
// six tenants also run. Each org expects at least its equal partition of
// every site (the sharing incentive). Plain AMF breaks that expectation;
// Enhanced AMF restores it, and a weight of 2 (twice the hardware
// contributed) raises the guarantee with it.
func Example_federation() {
	in := workload.EndowmentInstance(workload.EndowmentConfig{
		NumEndowed:  3,
		NumShared:   2,
		PoorPerSite: 3,
		Seed:        7,
	})
	solver := repro.NewSolver()
	es := repro.EqualShares(in)
	amf, err := solver.AMF(in)
	if err != nil {
		panic(err)
	}
	enh, err := solver.EnhancedAMF(in)
	if err != nil {
		panic(err)
	}

	fmt.Println("job       equal-share     AMF  enhanced")
	for j := 0; j < in.NumJobs(); j++ {
		kind := "org"
		if j >= 3 {
			kind = "tenant"
		}
		fmt.Printf("%-9s %11.4f %7.4f %9.4f\n",
			fmt.Sprintf("%s-%d", kind, j), es[j], amf.Aggregate(j), enh.Aggregate(j))
	}
	jobs, gaps := repro.SharingIncentiveViolations(amf, 1e-6)
	fmt.Printf("AMF violations: %d (max shortfall %.4f)\n", len(jobs), slices.Max(gaps))
	jobs, _ = repro.SharingIncentiveViolations(enh, 1e-6)
	fmt.Printf("enhanced AMF violations: %d\n", len(jobs))

	weighted := in.Clone()
	weighted.Weight = make([]float64, in.NumJobs())
	for j := range weighted.Weight {
		weighted.Weight[j] = 1
	}
	weighted.Weight[0] = 2
	wenh, err := solver.EnhancedAMF(weighted)
	if err != nil {
		panic(err)
	}
	fmt.Printf("weight 2: org-0's guarantee %.4f -> %.4f, received %.4f\n",
		es[0], repro.EqualShares(weighted)[0], wenh.Aggregate(0))
	// Output:
	// job       equal-share     AMF  enhanced
	// org-0          0.9444  0.9000    0.9444
	// org-1          0.9444  0.9000    0.9444
	// org-2          0.9444  0.9000    0.9444
	// tenant-3       0.0222  0.0667    0.0444
	// tenant-4       0.0222  0.0667    0.0444
	// tenant-5       0.0222  0.0667    0.0444
	// tenant-6       0.0222  0.0667    0.0444
	// tenant-7       0.0222  0.0667    0.0444
	// tenant-8       0.0222  0.0667    0.0444
	// AMF violations: 3 (max shortfall 0.0444)
	// enhanced AMF violations: 0
	// weight 2: org-0's guarantee 0.9444 -> 0.9800, received 0.9800
}

// Geo-distributed analytics: jobs span datacenters because their input
// is partitioned for locality. A skewed online stream over four
// datacenters runs in the fluid simulator under the per-site baseline,
// AMF and AMF with the completion-time add-on — the paper's headline
// end-to-end comparison. AMF compensates jobs pinned to crowded
// datacenters at their other ones; the baseline starves them and
// inflates the tail.
func Example_geodistributed() {
	const (
		datacenters = 4
		capacity    = 8.0 // slots per datacenter
		load        = 0.85
	)
	cfg := workload.StreamConfig{
		NumSites:         datacenters,
		NumJobs:          120,
		Skew:             1.5, // each job's tasks concentrate on its own hot DC
		PerJobSkew:       true,
		TasksPerJobMean:  8,
		TaskDurationMean: 1,
		SitesPerJobMax:   3,
		Seed:             42,
	}
	cfg.Lambda = workload.LambdaForLoad(cfg, capacity*datacenters, load)
	jobs := workload.GenerateStream(cfg)
	caps := make([]float64, datacenters)
	for s := range caps {
		caps[s] = capacity
	}
	solver := &repro.Solver{SkipJCTRefine: true}

	fmt.Println("policy   mean JCT  p95 JCT  p99 JCT  utilization")
	for _, p := range []sim.Policy{sim.PolicyPSMMF, sim.PolicyAMF, sim.PolicyAMFJCT} {
		res, err := sim.RunFluid(sim.FluidConfig{
			SiteCapacity: caps,
			Policy:       p,
			Solver:       solver,
		}, jobs)
		if err != nil {
			panic(err)
		}
		jcts := sim.JCTs(res.Jobs)
		fmt.Printf("%-8s %8.2f %8.2f %8.2f %12.3f\n", p, stats.Mean(jcts),
			stats.Percentile(jcts, 95), stats.Percentile(jcts, 99), res.Utilization)
	}
	// Output:
	// policy   mean JCT  p95 JCT  p99 JCT  utilization
	// psmmf        5.48    20.65    29.81        0.778
	// amf          5.02    15.16    25.19        0.778
	// amf+jct      5.05    15.17    25.15        0.778
}

// Strategy-proofness: can a job gain by lying about its demands? Under
// AMF no misreport (scaling, exaggerating, concentrating, fabricating
// locality) raises the liar's useful allocation. As a control, the same
// prober finds large profitable lies against a naive
// proportional-to-reported-demand policy.
func Example_strategyproof() {
	in := &repro.Instance{
		SiteCapacity: []float64{2, 1},
		JobName:      []string{"honest-a", "honest-b", "tempted"},
		Demand: [][]float64{
			{2, 1},
			{1, 1},
			{2, 0.5},
		},
	}
	rng := rand.New(rand.NewSource(2019))
	solver := repro.NewSolver()
	amf := func(in *repro.Instance) (*repro.Allocation, error) { return solver.AMF(in) }
	proportional := func(in *repro.Instance) (*repro.Allocation, error) {
		a := repro.NewAllocation(in)
		for s := range in.SiteCapacity {
			var total float64
			for j := range in.Demand {
				total += in.Demand[j][s]
			}
			if total == 0 {
				continue
			}
			for j := range in.Demand {
				a.Share[j][s] = math.Min(in.SiteCapacity[s]*in.Demand[j][s]/total, in.Demand[j][s])
			}
		}
		return a, nil
	}
	for _, p := range []struct {
		name  string
		alloc repro.AllocatorFunc
	}{{"AMF", amf}, {"proportional-to-report (control)", proportional}} {
		outcomes, err := repro.ProbeStrategyProofness(in, p.alloc, 200, rng)
		if err != nil {
			panic(err)
		}
		fmt.Println(p.name + ":")
		for _, o := range outcomes {
			fmt.Printf("  %-9s truthful=%.4f best-lie=%.4f gain=%.4f\n",
				in.JobName[o.Job], o.TruthUseful, o.BestUseful, o.Gain)
		}
	}
	// Output:
	// AMF:
	//   honest-a  truthful=1.0000 best-lie=1.0000 gain=0.0000
	//   honest-b  truthful=1.0000 best-lie=1.0000 gain=0.0000
	//   tempted   truthful=1.0000 best-lie=1.0000 gain=0.0000
	// proportional-to-report (control):
	//   honest-a  truthful=1.2000 best-lie=2.7429 gain=1.5429
	//   honest-b  truthful=0.8000 best-lie=1.9143 gain=1.1143
	//   tempted   truthful=1.0000 best-lie=2.3286 gain=1.3286
}

// Locality relaxation (the X3 extension): three jobs pinned to one
// crowded site while a second site sits idle, with remote slots at
// efficiency gamma. Plain AMF on the relaxed demand matrix equalizes raw
// units and can starve a job in useful terms; max-min on useful rates
// (internal/spill) never drops below the pinned model and meets it at
// gamma 0.
func Example_spillover() {
	in := &repro.Instance{
		SiteCapacity: []float64{1, 1},
		Demand: [][]float64{
			{1, 0},
			{1, 0},
			{1, 0},
		},
	}
	solver := repro.NewSolver()
	pinned, err := solver.AMF(in)
	if err != nil {
		panic(err)
	}
	fmt.Println("gamma  pinned  oblivious-min  useful-maxmin-min")
	for _, gamma := range []float64{0, 0.25, 0.5, 1} {
		sp := repro.Spillover{RemotePerSite: 1, Gamma: gamma}
		oblivious, err := solver.AMF(sp.Apply(in))
		if err != nil {
			panic(err)
		}
		aware, err := spill.Config{RemotePerSite: 1, Gamma: gamma}.MaxMinUseful(in)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-6.2f %6.3f %14.3f %18.3f\n", gamma,
			slices.Min(repro.Spillover{Gamma: 1}.UsefulRates(in, pinned)),
			slices.Min(sp.UsefulRates(in, oblivious)),
			slices.Min(aware.Useful))
	}
	// Output:
	// gamma  pinned  oblivious-min  useful-maxmin-min
	// 0.00    0.333          0.000              0.333
	// 0.25    0.333          0.167              0.417
	// 0.50    0.333          0.333              0.500
	// 1.00    0.333          0.667              0.667
}
