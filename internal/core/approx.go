package core

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Approximate water-filling for huge connected components.
//
// The exact progressive-filling loop (amf.go) pays one bottleneck round —
// a bracket search plus a Newton/bisection refinement, each step a max-flow
// probe over the whole component — per DISTINCT saturation level. That is
// the right trade for the small components the decomposition produces, but
// a single dense million-edge component has thousands of distinct levels
// and every probe touches every edge: the solve degenerates to
// rounds × probes × O(E).
//
// Following the sorted water-filling idea of "Solving Max-Min Fair
// Resource Allocations Quickly on Large Graphs" (Namyar et al. 2023), the
// approximate path trades exactness for round count:
//
//   - Jobs are bucketed into sorted equi-depth groups by their demand-cap
//     level D_j/w_j (approxLadder). The fill level jumps group boundary to
//     group boundary, so one feasible probe retires a whole group of
//     demand-capped jobs instead of discovering them a round at a time.
//
//   - When a probe comes back infeasible, the bracket between the last
//     feasible level and the probe holds one or more bottlenecks. Instead
//     of refining each to machine precision, the bracket is bisected only
//     down to a coarse width ltol = ApproxEpsilon·Scale/(4·wmax), and
//     every job the residual graph marks non-growable freezes AT ONCE at
//     the flow it actually received — lumping all bottleneck levels that
//     fall within the bracket into a single round.
//
// The per-job error bound comes from the incremental flow machinery: a
// feasible checkpoint at level lo saturates every source edge at its
// target τ_j(lo), and augmenting paths only ever cross source edges
// forward, so after the probe at the infeasible end hi each job's received
// flow r_j sits in [τ_j(lo), τ_j(hi)]. The exact bottleneck level t* of
// the lumped jobs also lies in [lo, hi), hence |r_j − τ_j(t*)| ≤
// (hi−lo)·w_j ≤ ltol·wmax = ApproxEpsilon·Scale/4 — a quarter of the
// budget, leaving headroom for the second-order redistribution a coarse
// freeze causes downstream. Demand-capped jobs freeze at their exact
// demand, contributing no error. Feasibility is never approximated: the
// final witness max-flow at the frozen levels must still check out.
//
// The path is wired as a size-triggered fast route of the AMF kernels
// (Solver.fillComponent): components with more than ApproxThreshold
// jobs+edges take it, everything else — and everything when ApproxEpsilon
// is 0 — runs the exact fillMono bit-for-bit.

// approxReport is the per-component record of an approximate solve,
// carried back to the solve entry points that aggregate SolveStats and
// emit the solve.approx stage events after worker pools drain.
type approxReport struct {
	// used marks that the component actually routed through approxFill.
	used bool
	// errBound is the largest certified per-job aggregate deviation from
	// the exact max-min allocation (absolute, in resource units).
	errBound float64
	// d is the wall time of the approximate solve, for the solve.approx
	// stage event.
	d time.Duration
}

// approxEnabled reports whether the approximate fast path can trigger at
// all: both knobs must be positive. ApproxEpsilon == 0 is the exactness
// guarantee — every solve takes the exact path bit-for-bit.
func (sv *Solver) approxEnabled() bool {
	return sv.ApproxEpsilon > 0 && sv.ApproxThreshold > 0
}

// approxRoute reports whether the (sub-)instance is large enough for the
// approximate path: jobs + positive-demand edges above ApproxThreshold.
// The scan early-exits once the threshold is crossed, so huge components
// pay O(threshold), not O(E), to decide.
func (sv *Solver) approxRoute(in *Instance) bool {
	if !sv.approxEnabled() {
		return false
	}
	size := in.NumJobs()
	if size > sv.ApproxThreshold {
		return true
	}
	for _, row := range in.Demand {
		for _, d := range row {
			if d > 0 {
				size++
				if size > sv.ApproxThreshold {
					return true
				}
			}
		}
	}
	return false
}

// approxLadder builds the candidate fill levels: equi-depth quantiles of
// the unfrozen jobs' demand-cap levels D_j/w_j, ascending and
// deduplicated, ending at the maximum. Group count grows with the square
// root of the job count so ladder maintenance stays negligible next to
// the probes it saves.
func approxLadder(in *Instance, frozen []bool, total []float64) []float64 {
	his := make([]float64, 0, len(total))
	for j := range total {
		if !frozen[j] {
			his = append(his, total[j]/in.JobWeight(j))
		}
	}
	if len(his) == 0 {
		return nil
	}
	sort.Float64s(his)
	groups := int(math.Sqrt(float64(len(his))))
	if groups < 4 {
		groups = 4
	}
	if groups > 64 {
		groups = 64
	}
	// Tiny components (threshold set very low) can have fewer jobs than
	// the minimum group count; every job is then its own group.
	if groups > len(his) {
		groups = len(his)
	}
	ladder := make([]float64, 0, groups)
	for g := 1; g <= groups; g++ {
		v := his[g*len(his)/groups-1]
		if len(ladder) == 0 || v > ladder[len(ladder)-1] {
			ladder = append(ladder, v)
		}
	}
	return ladder
}

// approxFill runs equi-depth approximate water-filling over one connected
// component, with optional per-job floors (Enhanced AMF). It returns the
// allocation and the certified per-job aggregate deviation bound.
func (sv *Solver) approxFill(in *Instance, floors []float64) (*Allocation, float64, error) {
	n := in.NumJobs()
	alloc := NewAllocation(in)
	if n == 0 {
		return alloc, 0, nil
	}

	scale := in.Scale()
	flowEps := math.Max(1e-12*scale, 1e-18)
	featol := sv.eps() * scale * (1 + math.Sqrt(float64(n)))
	scr := sv.getScratch()
	defer sv.putScratch(scr)
	scr.resize(n)
	nw := &scr.nw
	nw.rebuild(in, flowEps)

	floor := func(j int) float64 {
		if floors == nil {
			return 0
		}
		return math.Min(floors[j], in.TotalDemand(j))
	}

	level := scr.level
	frozen := scr.frozen
	targets := scr.targets
	total := scr.total

	remaining := 0
	wmax := 0.0
	for j := 0; j < n; j++ {
		total[j] = in.TotalDemand(j)
		if total[j] <= 0 {
			frozen[j] = true
			level[j] = 0
		} else {
			remaining++
			if w := in.JobWeight(j); w > wmax {
				wmax = w
			}
		}
	}
	if remaining == 0 {
		return alloc, 0, nil
	}

	// ltol is the bottleneck bracket width: jobs lumped into one bracket
	// freeze at most ltol·w_j (aggregate) from their exact level, so it
	// spends a quarter of the epsilon budget on direct bracket error.
	ltol := sv.ApproxEpsilon * scale / (4 * wmax)

	target := func(t float64) []float64 {
		for j := 0; j < n; j++ {
			if frozen[j] {
				targets[j] = level[j]
			} else {
				targets[j] = math.Max(floor(j), math.Min(t*in.JobWeight(j), total[j]))
			}
		}
		return targets
	}

	// Initial feasible checkpoint: every job at its floor (zero for plain
	// AMF, the isolated equal shares for Enhanced AMF).
	initTargets := scr.init
	for j := 0; j < n; j++ {
		if frozen[j] {
			initTargets[j] = level[j]
		} else {
			initTargets[j] = floor(j)
		}
	}
	flow0, want0 := nw.maxFlowAt(initTargets)
	if flow0 < want0-featol {
		return nil, 0, fmt.Errorf("core: floor vector infeasible: flow %g < %g", flow0, want0)
	}
	cp := &scr.cp
	nw.saveCheckpointTo(cp, flow0)

	ladder := approxLadder(in, frozen, total)

	errBound := 0.0
	dtol := sv.eps() * scale
	tPrev := 0.0
	step := 0
	maxRounds := 2*n + len(ladder) + 16
	for round := 0; remaining > 0; round++ {
		if round > maxRounds {
			return nil, 0, fmt.Errorf("core: approximate filling made no progress after %d rounds", round)
		}
		// hi: beyond this level every unfrozen target is demand-capped.
		hi := 0.0
		for j := 0; j < n; j++ {
			if !frozen[j] {
				hi = math.Max(hi, total[j]/in.JobWeight(j))
			}
		}
		for step < len(ladder) && ladder[step] <= tPrev {
			step++
		}
		t := hi
		if step < len(ladder) && ladder[step] < hi {
			t = ladder[step]
		}

		flow, want := nw.probeFrom(cp, target(t))
		if flow >= want-featol {
			// Feasible at the ladder level: advance the checkpoint and
			// retire the whole group of jobs the level demand-caps. They
			// freeze at their received target τ_j(t) — within dtol of their
			// exact demand — NOT at total[j]: the checkpoint saturates them
			// at τ_j(t), and freezing even dtol above it would leave a dust
			// deficit per job that accumulates across a large component
			// until probes read as infeasible with no unsaturated job.
			nw.saveCheckpointTo(cp, flow)
			frozeAny := false
			for j := 0; j < n; j++ {
				if !frozen[j] && t*in.JobWeight(j) >= total[j]-dtol {
					frozen[j] = true
					level[j] = targets[j]
					remaining--
					frozeAny = true
				}
			}
			if t >= hi && !frozeAny && remaining > 0 {
				// t == hi demand-caps every survivor; numerical dust could
				// leave a straggler, which is demand-capped by definition.
				for j := 0; j < n; j++ {
					if !frozen[j] {
						frozen[j] = true
						level[j] = targets[j]
						remaining--
					}
				}
			}
			tPrev = t
			continue
		}

		// Infeasible: the bracket (tPrev, t] holds one or more bottleneck
		// levels. Narrow it to ltol — feasible midpoints advance the
		// checkpoint — then freeze every non-growable job at once.
		lo, hiB := tPrev, t
		for hiB-lo > ltol {
			mid := lo + (hiB-lo)/2
			if f, w := nw.probeFrom(cp, target(mid)); f >= w-featol {
				nw.saveCheckpointTo(cp, f)
				lo = mid
			} else {
				hiB = mid
			}
		}
		// One probe at the infeasible end. Restored checkpoints keep every
		// frozen job saturated at its level and augmentation never reduces
		// source-edge flow, so at an infeasible max flow some UNFROZEN job
		// has an unsaturated source edge — it could not even receive its
		// target, which puts it in a cut-limited group whose exact common
		// level lies below hiB (and above the feasible lo). Freezing such
		// jobs at their received flow, clamped to [τ_j(lo), τ_j(hiB)], is
		// therefore off by at most the bracket width: (hiB−lo)·w_j ≤
		// ltol·w_j. Jobs the flow happened to saturate are left alone; if
		// they belong to the same exhausted group the next round's probe
		// comes back infeasible immediately and catches them unsaturated.
		flowB, wantB := nw.probeFrom(cp, target(hiB))
		// The total deficit wantB−flowB exceeds featol and is spread over
		// at most n jobs, so the largest per-job deficit clears half the
		// mean: satTol always detects at least one job.
		satTol := math.Max(4*flowEps, (wantB-flowB)/float64(2*n))
		frozeAny := false
		for j := 0; j < n; j++ {
			if frozen[j] {
				continue
			}
			w := in.JobWeight(j)
			if lo*w >= total[j]-dtol {
				// Demand-capped at the feasible end; freeze at τ_j(lo),
				// the level the lo checkpoint saturates (see the feasible
				// branch for why not total[j]).
				frozen[j] = true
				level[j] = math.Max(floor(j), math.Min(lo*w, total[j]))
				remaining--
				frozeAny = true
				continue
			}
			hij := math.Max(floor(j), math.Min(hiB*w, total[j]))
			r := nw.g.Flow(nw.srcEdge[j])
			if r >= hij-satTol {
				continue
			}
			loj := math.Max(floor(j), math.Min(lo*w, total[j]))
			if r < loj {
				r = loj
			}
			frozen[j] = true
			level[j] = r
			remaining--
			frozeAny = true
			if dev := hij - loj; dev > errBound {
				errBound = dev
			}
		}
		if !frozeAny {
			return nil, 0, fmt.Errorf("core: approximate bottleneck near level %g froze no job", hiB)
		}
		// Restore the invariant that the checkpoint saturates every job at
		// its current (level, τ(tPrev)) target — without it, a later
		// infeasible probe could dump its deficit on a frozen job's
		// unraised flow and mask the truly unsaturated jobs. The hiB flow
		// dominates the post-freeze targets pointwise, so this probe is
		// feasible by flow decomposition.
		flowL, wantL := nw.probeFrom(cp, target(lo))
		if flowL < wantL-featol {
			return nil, 0, fmt.Errorf("core: post-freeze levels infeasible near %g: flow %g < %g", lo, flowL, wantL)
		}
		nw.saveCheckpointTo(cp, flowL)
		tPrev = lo
	}

	// Final witness flow at the frozen levels: feasibility is exact even
	// when the levels are approximate.
	flow, want := nw.probeFrom(cp, level)
	if flow < want-math.Max(featol, 1e-6*scale*float64(n)) {
		return nil, 0, fmt.Errorf("core: final levels infeasible: flow %g < %g", flow, want)
	}
	nw.shares(alloc)
	return alloc, errBound, nil
}
