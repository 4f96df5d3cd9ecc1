package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/spill"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/workload"
)

// X2ReallocAblation is the staleness ablation called out in DESIGN.md §8:
// how much of AMF's completion-time advantage depends on event-driven
// re-allocation? The fluid simulator runs the same stream with allocation
// decisions batched on progressively coarser periodic grids.
func X2ReallocAblation(opt Options) Result {
	opt = opt.withDefaults()
	numJobs := opt.scaled(80, 30)
	numSites := opt.scaled(5, 3)
	caps := make([]float64, numSites)
	var totalCap float64
	for s := range caps {
		caps[s] = 4
		totalCap += 4
	}
	base := workload.StreamConfig{
		NumSites:         numSites,
		NumJobs:          numJobs,
		Skew:             1.2,
		PerJobSkew:       true,
		TasksPerJobMean:  6,
		TaskDurationMean: 1,
		SitesPerJobMax:   3,
		Seed:             opt.Seed + 13,
	}
	base.Lambda = workload.LambdaForLoad(base, totalCap, 0.8)
	jobs := workload.GenerateStream(base)

	s := table.NewSeries("Fig X2: mean JCT and allocator invocations vs. re-allocation interval",
		"interval", "mean-jct", "p95-jct", "solves")
	for _, interval := range []float64{0, 0.5, 1, 2, 5, 10} {
		res, err := sim.RunFluid(sim.FluidConfig{
			SiteCapacity:    caps,
			Policy:          sim.PolicyAMF,
			Solver:          simSolver(),
			ReallocInterval: interval,
			MaxEvents:       100000,
		}, jobs)
		if err != nil {
			panic(fmt.Sprintf("X2 interval=%g: %v", interval, err))
		}
		s.AddPoint(interval, sim.MeanJCT(res.Jobs),
			sim.PercentileJCT(res.Jobs, 95), float64(res.Reallocations))
	}
	return Result{
		ID:     "X2",
		Title:  "Extension: re-allocation frequency ablation",
		Series: []*table.Series{s},
		Notes: []string{
			"interval 0 = event-driven (re-solve at every arrival/completion)",
			"expected: JCT degrades gracefully as decisions go stale; the allocator is cheap enough (E9) that event-driven is practical",
		},
	}
}

// X3LocalityRelaxation quantifies the hard-pinning assumption: the paper's
// model forbids running work away from its data. With remote slots at
// efficiency gamma, three disciplines are compared on locality-discounted
// ("useful") rates:
//
//   - amf-pinned: the paper's model (remote slots unused) — flat in gamma;
//   - amf-oblivious: plain AMF on the demand-relaxed instance — a pitfall:
//     it equalizes raw resource units and may serve jobs through worthless
//     remote slots, collapsing useful rates at small gamma;
//   - useful-maxmin: progressive filling directly on useful rates
//     (internal/spill), which interpolates cleanly between the paper's
//     model (gamma=0) and full fluidity (gamma=1).
func X3LocalityRelaxation(opt Options) Result {
	opt = opt.withDefaults()
	trials := opt.scaled(3, 2)
	numJobs := opt.scaled(12, 6)
	numSites := opt.scaled(4, 3)
	sv := core.NewSolver()
	minRate := table.NewSeries("Fig X3a: minimum useful rate (worst-off job)",
		"gamma", "amf-pinned", "amf-oblivious", "useful-maxmin")
	meanRate := table.NewSeries("Fig X3b: mean useful rate",
		"gamma", "amf-pinned", "amf-oblivious", "useful-maxmin")
	for _, gamma := range []float64{0, 0.25, 0.5, 0.75, 1} {
		var mn, me [3]stats.Summary
		for trial := 0; trial < trials; trial++ {
			// Narrow per-job spread and moderate oversubscription leave
			// some sites idle while others are crowded — the regime where
			// remote execution has capacity to borrow.
			in := workload.Generate(workload.Config{
				NumJobs:        numJobs,
				NumSites:       numSites,
				SiteCapacity:   1,
				Skew:           2,
				PerJobSkew:     true,
				SitesPerJobMin: 1,
				SitesPerJobMax: 2,
				MeanDemand:     1.5 * float64(numSites) / float64(numJobs),
				SizeDist:       workload.SizeBoundedPareto,
				Seed:           opt.Seed + uint64(trial)*1009,
			})
			remote := 2 * float64(numSites) / float64(numJobs)
			sp := core.Spillover{RemotePerSite: remote, Gamma: gamma}
			spCfg := spill.Config{RemotePerSite: remote, Gamma: gamma}

			pinned, err := sv.AMF(in)
			if err != nil {
				panic(err)
			}
			oblivious, err := sv.AMF(sp.Apply(in))
			if err != nil {
				panic(err)
			}
			aware, err := spCfg.MaxMinUseful(in)
			if err != nil {
				panic(err)
			}
			all := [][]float64{
				core.Spillover{Gamma: 1}.UsefulRates(in, pinned),
				sp.UsefulRates(in, oblivious),
				aware.Useful,
			}
			for i, rates := range all {
				var s stats.Summary
				s.AddAll(rates)
				mn[i].Add(s.Min())
				me[i].Add(s.Mean())
			}
		}
		minRate.AddPoint(gamma, mn[0].Mean(), mn[1].Mean(), mn[2].Mean())
		meanRate.AddPoint(gamma, me[0].Mean(), me[1].Mean(), me[2].Mean())
	}
	return Result{
		ID:     "X3",
		Title:  "Extension: locality relaxation (remote spillover)",
		Series: []*table.Series{minRate, meanRate},
		Notes: []string{
			"remote budget: one fair-share of extra slots per site per job; useful rate discounts remote units by gamma",
			"expected: useful-maxmin dominates the pinned model at every gamma and meets it at gamma=0; the oblivious relaxation collapses at small gamma (it cannot see the discount)",
		},
	}
}
