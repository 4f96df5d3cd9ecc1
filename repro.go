// Package repro is a reproduction of "On Max-min Fair Resource Allocation
// for Distributed Job Execution" (Guan, Li, Tang — ICPP 2019): Aggregate
// Max-min Fairness (AMF) for jobs whose work is pinned across multiple
// sites by data locality.
//
// This root package is the public API surface. It re-exports the core
// types and allocators so that downstream users need a single import:
//
//	in := &repro.Instance{
//	    SiteCapacity: []float64{4, 4},
//	    Demand:       [][]float64{{4, 1}, {2, 3}},
//	}
//	alloc, err := repro.NewSolver().AMF(in)
//
// The allocators:
//
//   - Solver.AMF — aggregate max-min fairness: the unique allocation whose
//     per-job aggregate (summed across sites) vector is max-min fair. It is
//     Pareto efficient, envy-free and strategy-proof.
//   - Solver.EnhancedAMF — additionally floors every job at its isolated
//     equal share, restoring the sharing-incentive property that plain AMF
//     can violate.
//   - Solver.AMFWithJCT / Solver.OptimizeJCT — the completion-time add-on:
//     redistributes each job's aggregate across sites to minimize
//     completion-time stretch without touching the fair aggregates.
//     AMFWithJCT runs the add-on per connected component of the demand
//     graph, one stretch search each; OptimizeJCT runs it on whatever
//     allocation it is given, as one search.
//   - PerSiteMMF — the per-site max-min baseline the paper compares
//     against.
//
// Verification helpers (EqualShares, IsParetoEfficient, EnvyPairs,
// SharingIncentiveViolations, ProbeStrategyProofness, …) check the paper's
// fairness properties on concrete allocations.
//
// The simulators, workload generators and the experiment suite live under
// internal/; the cmd/ tools (amf-solve, amf-sim, amf-bench, amf-gen)
// expose them on the command line, and the root-level benchmarks
// (bench_test.go) regenerate every table and figure of the evaluation.
package repro

import (
	"math/rand"

	"repro/internal/core"
)

// Instance describes a multi-site allocation problem. See core.Instance.
type Instance = core.Instance

// Allocation is a per-job, per-site assignment. See core.Allocation.
type Allocation = core.Allocation

// Solver computes AMF allocations. See core.Solver.
type Solver = core.Solver

// Method selects the bottleneck-finding algorithm.
type Method = core.Method

// Bottleneck-finder choices for Solver.Method.
const (
	MethodNewton = core.MethodNewton
	MethodBisect = core.MethodBisect
)

// AllocatorFunc computes an allocation for an instance.
type AllocatorFunc = core.AllocatorFunc

// MisreportOutcome reports a strategy-proofness probe for one job.
type MisreportOutcome = core.MisreportOutcome

// Diagnostics explains a solve: the cascade of bottleneck rounds. See
// Solver.AMFDiag and Solver.EnhancedAMFDiag.
type Diagnostics = core.Diagnostics

// FreezeRound is one round of a solve's bottleneck cascade.
type FreezeRound = core.FreezeRound

// JobLimit reports what capped a job (demand vs a site bottleneck).
type JobLimit = core.JobLimit

// JobLimit values.
const (
	LimitUnknown    = core.LimitUnknown
	LimitDemand     = core.LimitDemand
	LimitBottleneck = core.LimitBottleneck
)

// Spillover models locality relaxation at efficiency Gamma; see
// core.Spillover (and internal/spill for useful-rate max-min).
type Spillover = core.Spillover

// NewSolver returns a solver with default settings (Newton bottleneck
// finder, 1e-9 relative tolerance).
func NewSolver() *Solver { return core.NewSolver() }

// NewAllocation returns an all-zero allocation for the instance.
func NewAllocation(in *Instance) *Allocation { return core.NewAllocation(in) }

// PerSiteMMF computes the per-site max-min fair baseline.
func PerSiteMMF(in *Instance) *Allocation { return core.PerSiteMMF(in) }

// EqualShares returns each job's isolated equal share, the
// sharing-incentive benchmark.
func EqualShares(in *Instance) []float64 { return core.EqualShares(in) }

// MaxTotalAllocation reports the largest total any feasible allocation can
// hand out.
func MaxTotalAllocation(in *Instance) float64 { return core.MaxTotalAllocation(in) }

// IsParetoEfficient reports whether the allocation is Pareto efficient
// within tol.
func IsParetoEfficient(a *Allocation, tol float64) bool { return core.IsParetoEfficient(a, tol) }

// AggregateMaxMinViolation probes the allocation's aggregate vector for a
// max-min fairness violation.
func AggregateMaxMinViolation(a *Allocation, delta float64) (int, bool) {
	return core.AggregateMaxMinViolation(a, delta)
}

// EnvyPairs returns the (envier, envied) pairs in the allocation.
func EnvyPairs(a *Allocation, tol float64) [][2]int { return core.EnvyPairs(a, tol) }

// SharingIncentiveViolations returns jobs whose aggregate falls short of
// their isolated equal share, with the shortfalls.
func SharingIncentiveViolations(a *Allocation, tol float64) ([]int, []float64) {
	return core.SharingIncentiveViolations(a, tol)
}

// UsefulAllocation measures what job j obtains from an allocation given
// its true demands.
func UsefulAllocation(a *Allocation, j int, trueDemand []float64) float64 {
	return core.UsefulAllocation(a, j, trueDemand)
}

// ProbeStrategyProofness searches for profitable demand misreports under
// the given allocator.
func ProbeStrategyProofness(in *Instance, alloc AllocatorFunc, trials int, rng *rand.Rand) ([]MisreportOutcome, error) {
	return core.ProbeStrategyProofness(in, alloc, trials, rng)
}
