package main

import (
	"fmt"
	"math"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/scheduler"
)

// newScheduler returns an empty controller for the workload's sites and
// policy; fromScratch turns incremental solving off.
func newScheduler(w workloadSpec, base *core.Instance, fromScratch bool) (*scheduler.Scheduler, error) {
	pol, err := policy.ForName(w.Policy)
	if err != nil {
		return nil, err
	}
	return scheduler.New(scheduler.Config{
		SiteCapacity:       base.SiteCapacity,
		Policy:             pol,
		DisableIncremental: fromScratch,
	})
}

// reference rebuilds the job set the server acknowledged — the base jobs,
// then every acknowledged mutation in per-stream order — on a fresh
// controller that solves from scratch, and returns the instance and
// allocation the server must be serving. Streams mutate disjoint
// jobs, so their relative order does not change the final job set.
func reference(w workloadSpec, base *core.Instance, acked [clients][]op) (*core.Instance, map[string][]float64, error) {
	sc, err := newScheduler(w, base, true)
	if err != nil {
		return nil, nil, err
	}
	if err := sc.AddJobs(baseSpecs(base)); err != nil {
		return nil, nil, err
	}
	for _, ops := range acked {
		for _, o := range ops {
			if err := o.apply(sc); err != nil {
				return nil, nil, fmt.Errorf("reference: %w", err)
			}
		}
	}
	return sc.Resolve()
}

// checkAllocation fails unless served is feasible for the reference
// instance and gives every job the reference aggregate to 1e-9·Scale.
// Aggregates, not per-site rows, are compared: the max-min fair aggregate
// vector is unique, its split over sites is not.
func checkAllocation(in *core.Instance, want map[string][]float64, served api.AllocationResponse) error {
	if len(served.Jobs) != len(want) {
		return fmt.Errorf("served allocation has %d jobs, acknowledged set has %d", len(served.Jobs), len(want))
	}
	tol := 1e-9 * in.Scale()
	got := core.NewAllocation(in)
	for j, name := range in.JobName {
		row, ok := served.Jobs[name]
		if !ok {
			return fmt.Errorf("job %s missing from served allocation", name)
		}
		if len(row.Shares) != in.NumSites() {
			return fmt.Errorf("job %s: %d shares for %d sites", name, len(row.Shares), in.NumSites())
		}
		got.Share[j] = row.Shares
		var ref float64
		for _, v := range want[name] {
			ref += v
		}
		if agg := got.Aggregate(j); math.Abs(agg-ref) > tol {
			return fmt.Errorf("job %s: served aggregate %.12g, reference %.12g (tol %.3g)", name, agg, ref, tol)
		}
	}
	return got.CheckFeasible(tol)
}
