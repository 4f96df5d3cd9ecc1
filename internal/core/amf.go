package core

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Method selects how the progressive-filling loop locates the bottleneck
// level at each round.
type Method int

const (
	// MethodNewton finds each bottleneck exactly via discrete Newton
	// iteration on the parametric min cut (default; typically 2-5 max-flow
	// calls per round).
	MethodNewton Method = iota
	// MethodBisect brackets each bottleneck by bisection on the level
	// (robust reference; ~55 max-flow calls per round).
	MethodBisect
)

func (m Method) String() string {
	switch m {
	case MethodNewton:
		return "newton"
	case MethodBisect:
		return "bisect"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Solver computes AMF allocations. The zero value is ready to use, and all
// methods are safe for concurrent use. A solver is worth keeping warm: it
// pools its per-solve working state (flow-network arena, checkpoint
// buffers, level vectors), so repeated solves over similarly-shaped
// instances — the serving engine's batch commits — stop paying the build
// cost; see Reset to drop that state.
type Solver struct {
	// Method selects the bottleneck finder (default MethodNewton).
	Method Method
	// Eps is the relative numerical tolerance (default 1e-9).
	Eps float64
	// MaxNewtonIter bounds Newton iterations per round before falling back
	// to bisection (default 64).
	MaxNewtonIter int
	// SkipJCTRefine makes OptimizeJCT stop after the global min-max stretch
	// phase, skipping the per-job tightening pass. Simulators that re-solve
	// on every event use this to trade a slightly looser split for an
	// order-of-magnitude fewer flow computations.
	SkipJCTRefine bool
	// Parallelism bounds the worker pool used to solve independent
	// connected components concurrently (default GOMAXPROCS; 1 solves
	// components sequentially). See partition.go.
	Parallelism int
	// ApproxEpsilon, when positive, arms the approximate water-filling fast
	// path (approx.go): components routed to it are guaranteed per-job
	// aggregates within ApproxEpsilon*Instance.Scale() of the exact max-min
	// allocation. Zero (the default) disables the path entirely — every
	// solve is exact, bit-for-bit the pre-approximation behavior.
	ApproxEpsilon float64
	// ApproxThreshold is the component size — jobs plus positive-demand
	// edges — above which the approximate path triggers. Zero (the default)
	// disables it; components at or below the threshold always solve
	// exactly. Both knobs must be positive for the fast path to engage.
	ApproxThreshold int
	// OnStage, when set, receives a StageEvent after each solve stage
	// completes (see StageEvent for the contract). Non-detail events are
	// delivered from the goroutine driving the solve, in execution order;
	// detail events are delivered from the same goroutine after the worker
	// pool drains. The hook must be cheap and must not call back into the
	// solver.
	OnStage func(StageEvent)

	// scratch pools per-solve working state across solves and across
	// parallel component workers; see solveScratch.
	scratch sync.Pool
	// statsMu guards stats, the decomposition record of the latest solve.
	statsMu sync.Mutex
	stats   SolveStats
}

// NewSolver returns a solver with default settings.
func NewSolver() *Solver { return &Solver{} }

func (sv *Solver) eps() float64 {
	if sv.Eps > 0 {
		return sv.Eps
	}
	return 1e-9
}

func (sv *Solver) maxNewton() int {
	if sv.MaxNewtonIter > 0 {
		return sv.MaxNewtonIter
	}
	return 64
}

// AMF computes the aggregate max-min fair allocation: the unique allocation
// whose per-job aggregate vector is (weighted) max-min fair over all
// feasible allocations. The returned allocation carries a witness per-site
// split realizing the aggregates; use OptimizeJCT to pick the split that
// minimizes completion times.
func (sv *Solver) AMF(in *Instance) (*Allocation, error) { return sv.Solve(in, KernelAMF) }

// Solve validates in and solves every connected component of it under
// kernel k — the one from-scratch entry of the component pipeline
// (partition.go). Its rows are bit-identical to an IncrementalSolver's
// with the same kernel.
func (sv *Solver) Solve(in *Instance, k Kernel) (*Allocation, error) {
	if err := sv.validate(in); err != nil {
		return nil, err
	}
	return sv.fill(in, k)
}

// validate is Instance.Validate reported as the solve's first stage.
func (sv *Solver) validate(in *Instance) error {
	t0 := time.Now()
	err := in.Validate()
	sv.stage(StageValidate, time.Since(t0), false)
	return err
}

// EnhancedAMF computes the sharing-incentive-preserving variant: every job
// is first guaranteed its isolated equal share (EqualShares), and the
// remaining capacity is filled max-min fairly above those floors.
func (sv *Solver) EnhancedAMF(in *Instance) (*Allocation, error) {
	return sv.Solve(in, KernelEnhanced)
}

// AMFLevels is like AMF but returns only the aggregate vector; used when
// the per-site split is not needed.
func (sv *Solver) AMFLevels(in *Instance) ([]float64, error) {
	a, err := sv.AMF(in)
	if err != nil {
		return nil, err
	}
	return a.Aggregates(), nil
}

// fillMono runs progressive filling over the whole instance as a single
// flow network. It is the exact per-component solve of the component
// pipeline (via fillComponent) and, through AMFDiag, the whole-network
// reference.
func (sv *Solver) fillMono(in *Instance, floors []float64, diag *Diagnostics) (*Allocation, error) {
	n := in.NumJobs()
	alloc := NewAllocation(in)
	if n == 0 {
		return alloc, nil
	}

	scale := in.Scale()
	flowEps := math.Max(1e-12*scale, 1e-18)
	// Feasibility slack: max-flow rounding error accumulates roughly with
	// the square root of the edge count; anything beyond a sqrt(n) factor
	// needlessly caps the dynamic range between the smallest meaningful
	// allocation and the largest capacity (~1e5 with the 1e-9 default).
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

	level := scr.level // frozen aggregate per job
	frozen := scr.frozen
	targets := scr.targets // scratch

	// Jobs with zero demand freeze immediately.
	total := scr.total
	remaining := 0
	for j := 0; j < n; j++ {
		total[j] = in.TotalDemand(j)
		if total[j] <= 0 {
			frozen[j] = true
			level[j] = 0
		} else {
			remaining++
		}
	}

	// target fills the scratch vector for a common unfrozen level t.
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

	// Establish the initial feasible checkpoint: every job at its floor
	// (zero for plain AMF; the isolated equal shares — feasible by
	// construction — for Enhanced AMF).
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
		return nil, fmt.Errorf("core: floor vector infeasible: flow %g < %g", flow0, want0)
	}
	cp := &scr.cp
	nw.saveCheckpointTo(cp, flow0)
	tPrev := 0.0

	for round := 0; remaining > 0; round++ {
		if round > n {
			return nil, fmt.Errorf("core: progressive filling made no progress after %d rounds", round)
		}
		// hi: beyond this level all unfrozen targets are demand-capped.
		hi := 0.0
		for j := 0; j < n; j++ {
			if !frozen[j] {
				hi = math.Max(hi, total[j]/in.JobWeight(j))
			}
		}
		// Bracket the bottleneck by exponential search upward from the
		// previous level: this keeps each probe's incremental flow small
		// (the checkpoint advances on every feasible probe) instead of
		// pushing the full remaining headroom at hi every round.
		tLow := tPrev
		tHigh := hi
		atHi := true
		gap := hi - tPrev
		for _, frac := range []float64{1.0 / 4, 1} {
			t := tPrev + gap*frac
			flow, want := nw.probeFrom(cp, target(t))
			if flow >= want-featol {
				nw.saveCheckpointTo(cp, flow)
				tLow = t
			} else {
				tHigh = t
				atHi = false
				break
			}
		}
		if atHi {
			// Feasible with every unfrozen job at its full demand: all
			// remaining jobs are demand-capped.
			round := FreezeRound{Level: hi}
			for j := 0; j < n; j++ {
				if !frozen[j] {
					frozen[j] = true
					level[j] = total[j]
					remaining--
					round.DemandCapped = append(round.DemandCapped, j)
				}
			}
			if diag != nil {
				diag.Rounds = append(diag.Rounds, round)
			}
			break
		}

		var tstar float64
		var err error
		// slack bounds how far tstar can sit below the true bottleneck
		// level (zero for Newton, the bracket tolerance for bisection);
		// the freeze detector must treat residual capacity of that order
		// as zero or it will see every job as still raisable.
		var slack float64
		switch sv.Method {
		case MethodBisect:
			tstar, slack = sv.bisectBottleneck(nw, cp, target, tLow, tHigh, featol)
		default:
			tstar, err = sv.newtonBottleneck(nw, cp, in, frozen, level, floor, total, target, tLow, tHigh, featol)
			if err != nil {
				tstar, slack = sv.bisectBottleneck(nw, cp, target, tLow, tHigh, featol)
			}
		}

		// Probe once at the bottleneck: the resulting residual state yields
		// the freeze information, and the same feasible flow becomes the
		// next round's checkpoint — saving it now (instead of re-probing
		// after freezing) removes one full flow computation per round.
		flowStar, _ := nw.probeFrom(cp, target(tstar))
		nw.saveCheckpointTo(cp, flowStar)
		var sumW float64
		for j := 0; j < n; j++ {
			if !frozen[j] {
				sumW += in.JobWeight(j)
			}
		}
		freezeEps := math.Max(flowEps, math.Max(1e-7*scale, 4*slack*sumW))
		nw.g.SetEps(freezeEps)
		canGrow := nw.g.SinkSide(nw.sink)
		nw.g.SetEps(flowEps)

		frozeAny := false
		dtol := sv.eps() * scale
		round := FreezeRound{Level: tstar}
		for j := 0; j < n; j++ {
			if frozen[j] {
				continue
			}
			tj := math.Max(floor(j), math.Min(tstar*in.JobWeight(j), total[j]))
			switch {
			case tstar*in.JobWeight(j) >= total[j]-dtol:
				frozen[j] = true
				level[j] = total[j]
				frozeAny = true
				remaining--
				round.DemandCapped = append(round.DemandCapped, j)
			case !canGrow[nw.jobNode(j)]:
				frozen[j] = true
				level[j] = tj
				frozeAny = true
				remaining--
				round.Bottlenecked = append(round.Bottlenecked, j)
			}
		}
		if !frozeAny {
			// Residual-based detection failed (possible when bisection left
			// slack); probe each job individually from the bottleneck
			// checkpoint using the hoisted scratch buffer.
			bump := math.Max(100*featol, 1e-6*scale)
			probe := scr.probe
			for j := 0; j < n; j++ {
				if frozen[j] {
					continue
				}
				tj := math.Max(floor(j), math.Min(tstar*in.JobWeight(j), total[j]))
				copy(probe, target(tstar))
				probe[j] = tj + bump
				if flow, want := nw.probeFrom(cp, probe); flow < want-featol {
					frozen[j] = true
					level[j] = tj
					frozeAny = true
					remaining--
					round.Bottlenecked = append(round.Bottlenecked, j)
				}
			}
		}
		if !frozeAny {
			return nil, fmt.Errorf("core: bottleneck at level %g froze no job", tstar)
		}
		if diag != nil {
			diag.Rounds = append(diag.Rounds, round)
		}
		tPrev = tstar
	}

	// Final witness flow at the frozen levels.
	flow, want := nw.probeFrom(cp, level)
	if flow < want-math.Max(featol, 1e-6*scale*float64(n)) {
		return nil, fmt.Errorf("core: final levels infeasible: flow %g < %g", flow, want)
	}
	nw.shares(alloc)
	return alloc, nil
}

// bisectBottleneck brackets the largest feasible common level in [lo, hi].
// The caller guarantees target(lo) is feasible and target(hi) is not.
// Feasible probes advance the caller's checkpoint so later probes augment
// from them. The returned slack is the final bracket width: the true
// bottleneck lies in [tstar, tstar+slack].
func (sv *Solver) bisectBottleneck(nw *network, cp *checkpoint, target func(float64) []float64, lo, hi, featol float64) (tstar, slack float64) {
	ttol := sv.eps() * math.Max(hi, 1e-300)
	for hi-lo > ttol {
		mid := (lo + hi) / 2
		if flow, want := nw.probeFrom(cp, target(mid)); flow >= want-featol {
			nw.saveCheckpointTo(cp, flow)
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, hi - lo
}

// newtonBottleneck finds the largest feasible common level in [tLow, tHigh]
// exactly via discrete Newton iteration on the parametric min cut. Starting
// from the infeasible tHigh, each iteration reads the min cut, expresses
// both the cut capacity and the target sum as (piecewise) linear functions
// of the level, and solves for their crossing. The first feasible iterate
// is the bottleneck.
func (sv *Solver) newtonBottleneck(
	nw *network,
	cp *checkpoint,
	in *Instance,
	frozen []bool,
	level []float64,
	floor func(int) float64,
	total []float64,
	target func(float64) []float64,
	tLow, tHigh, featol float64,
) (tstar float64, err error) {
	t := tHigh
	n := in.NumJobs()
	for iter := 0; iter < sv.maxNewton(); iter++ {
		flow, want := nw.probeFrom(cp, target(t))
		if flow >= want-featol {
			return t, nil
		}
		side := nw.g.SourceSide(nw.src)

		// Constant part of the cut: crossing demand edges and site edges.
		var crest float64
		for j := 0; j < n; j++ {
			if !side[nw.jobNode(j)] {
				continue
			}
			for _, se := range nw.jobEdges[j] {
				if !side[nw.siteNode(se.site)] {
					crest += nw.g.Cap(se.id)
				}
			}
		}
		for s := 0; s < in.NumSites(); s++ {
			if side[nw.siteNode(s)] {
				crest += in.SiteCapacity[s]
			}
		}
		// Frozen jobs on the source side contribute their fixed level to
		// the target sum but not to the cut.
		var frozenReach float64
		var live []clampedJob
		for j := 0; j < n; j++ {
			if !side[nw.jobNode(j)] {
				continue
			}
			if frozen[j] {
				frozenReach += level[j]
			} else {
				live = append(live, clampedJob{
					Floor:  floor(j),
					Demand: total[j],
					Weight: in.JobWeight(j),
				})
			}
		}
		// Solve sum tau_live(t') = crest - frozenReach.
		required := crest - frozenReach
		tn := solveClampedSum(live, required)
		if math.IsInf(tn, 1) || tn >= t || tn < tLow-sv.eps()*math.Max(tHigh, 1e-300) {
			return 0, fmt.Errorf("core: newton step stalled at t=%g (next %g)", t, tn)
		}
		if tn < tLow {
			tn = tLow
		}
		t = tn
	}
	return 0, fmt.Errorf("core: newton did not converge in %d iterations", sv.maxNewton())
}
