package fairness

// Partial is the mergeable summary of one group of jobs from which the
// served fairness gauges are reduced: Jain's index over the jobs'
// aggregate allocations, and the minimum and maximum weight-normalized
// aggregate. The incremental solver records one Partial per connected
// component when it solves it; a commit merges the components' partials
// in a fixed order instead of re-summing every job's share row. Merging
// never subtracts, so nothing drifts from commit to commit: the result
// equals a dense recomputation up to floating-point summation order.
//
// The zero value is the empty group.
type Partial struct {
	// Jobs is the number of jobs observed.
	Jobs int
	// Sum and SumSq accumulate the aggregate allocations and their squares.
	Sum, SumSq float64
	// MinNorm and MaxNorm are the extreme aggregate/weight ratios seen;
	// meaningful only when Jobs > 0.
	MinNorm, MaxNorm float64
}

// Observe adds one job with the given aggregate allocation and (positive)
// weight.
func (p *Partial) Observe(agg, weight float64) {
	p.Merge(Partial{Jobs: 1, Sum: agg, SumSq: agg * agg, MinNorm: agg / weight, MaxNorm: agg / weight})
}

// ObserveZeros adds k jobs that hold no allocation (zero-demand jobs,
// which belong to no component).
func (p *Partial) ObserveZeros(k int) {
	if k > 0 {
		p.Merge(Partial{Jobs: k})
	}
}

// Merge folds q into p.
func (p *Partial) Merge(q Partial) {
	if q.Jobs == 0 {
		return
	}
	if p.Jobs == 0 {
		*p = q
		return
	}
	p.Jobs += q.Jobs
	p.Sum += q.Sum
	p.SumSq += q.SumSq
	if q.MinNorm < p.MinNorm {
		p.MinNorm = q.MinNorm
	}
	if q.MaxNorm > p.MaxNorm {
		p.MaxNorm = q.MaxNorm
	}
}

// Jain reports Jain's index of the observed aggregates, with JainIndex's
// conventions: 1 for an empty or all-zero group.
func (p Partial) Jain() float64 {
	if p.Jobs == 0 || p.SumSq == 0 {
		return 1
	}
	return p.Sum * p.Sum / (float64(p.Jobs) * p.SumSq)
}

// MinMax reports the extreme weight-normalized aggregates (0, 0 for the
// empty group).
func (p Partial) MinMax() (mn, mx float64) {
	if p.Jobs == 0 {
		return 0, 0
	}
	return p.MinNorm, p.MaxNorm
}

// PartialOf summarizes full share rows: agg[j] = sum of share[j], weighed
// by weight(j). It is the one-shot form for allocators that produce a
// whole allocation at once.
func PartialOf(share [][]float64, weight func(j int) float64) Partial {
	var p Partial
	for j, row := range share {
		var agg float64
		for _, v := range row {
			agg += v
		}
		p.Observe(agg, weight(j))
	}
	return p
}
