package core

import (
	"math"
	"sort"
)

// Explanation answers the paper's operational question — why did job j
// converge to aggregate level A_j — from the published allocation itself.
// It is derived post-hoc from (instance, share matrix, optional floors)
// rather than captured inside the water-filling loop, so it is exact for
// every solve path (whole-network, decomposed, incremental splicing, and the
// approximate fast path) and costs nothing on the commit path: engines
// compute it lazily per published snapshot.
type Explanation struct {
	// Scale is the instance magnitude the tolerance derives from.
	Scale float64 `json:"scale"`
	// Tol is the absolute level tolerance, eps*scale*(1+sqrt n), mirroring
	// the solver's feasibility tolerance.
	Tol float64 `json:"tol"`
	// SatTol is the looser saturation tolerance: a site counts as
	// saturated when its residual capacity is at most SatTol. It mirrors
	// the slack the solver's final witness flow is allowed.
	SatTol float64           `json:"sat_tol"`
	Jobs   []JobExplanation  `json:"jobs"`
	Sites  []SiteExplanation `json:"sites"`
}

// Limit strings for JobExplanation.Limit.
const (
	ExplainDemandCapped = "demand-capped"
	ExplainBottlenecked = "bottlenecked"
	ExplainFloorBound   = "floor-bound"
	ExplainZeroDemand   = "zero-demand"
)

// JobExplanation explains one job's final level.
type JobExplanation struct {
	Job  int    `json:"job"`
	Name string `json:"name,omitempty"`
	// Level is the job's aggregate allocation A_j = sum_s share[j][s].
	Level float64 `json:"level"`
	// NormLevel is the weighted level A_j / w_j progressive filling raised
	// uniformly across unfrozen jobs.
	NormLevel float64 `json:"norm_level"`
	Weight    float64 `json:"weight"`
	// Demand is the job's total demand D_j, the demand-capped ceiling.
	Demand float64 `json:"demand"`
	// Floor is the job's Enhanced-AMF equal-share floor (0 when the solve
	// ran without floors).
	Floor float64 `json:"floor,omitempty"`
	// FloorBound reports that the floor is binding: the job sits at its
	// equal share rather than at the common water level.
	FloorBound bool `json:"floor_bound,omitempty"`
	// Limit classifies what froze the job: demand-capped, floor-bound,
	// bottlenecked, or zero-demand.
	Limit string `json:"limit"`
	// FreezeRound is the job's position in the reconstructed freeze
	// cascade: 1 for the lowest distinct normalized level, increasing from
	// there. Zero-demand jobs report round 0.
	FreezeRound int `json:"freeze_round"`
	// BindingSites lists the saturated sites that stopped a bottlenecked
	// job: sites where it still has residual demand but the site is full.
	BindingSites []BindingSite `json:"binding_sites,omitempty"`
}

// BindingSite is one saturated site pinning a bottlenecked job.
type BindingSite struct {
	Site int    `json:"site"`
	Name string `json:"name,omitempty"`
	// Residual is the site's spare capacity, capacity - load. Saturation
	// means Residual <= SatTol.
	Residual float64 `json:"residual"`
	// JobResidualDemand is how much more the job could productively use at
	// this site, demand[j][s] - share[j][s].
	JobResidualDemand float64 `json:"job_residual_demand"`
}

// SiteExplanation summarizes one site's load state.
type SiteExplanation struct {
	Site      int     `json:"site"`
	Name      string  `json:"name,omitempty"`
	Capacity  float64 `json:"capacity"`
	Load      float64 `json:"load"`
	Residual  float64 `json:"residual"`
	Saturated bool    `json:"saturated"`
	// Jobs lists the member jobs holding a positive share at this site.
	Jobs []int `json:"jobs,omitempty"`
}

// Explain derives the explanation for a published share matrix. floors is
// the Enhanced-AMF equal-share vector the solve ran with, or nil for plain
// AMF. The share matrix is read, never retained.
func Explain(in *Instance, share [][]float64, floors []float64) *Explanation {
	n := in.NumJobs()
	m := in.NumSites()
	scale := in.Scale()
	tol := 1e-9 * scale * (1 + math.Sqrt(float64(n)))
	satTol := math.Max(tol, 1e-6*scale)

	ex := &Explanation{
		Scale:  scale,
		Tol:    tol,
		SatTol: satTol,
		Jobs:   make([]JobExplanation, n),
		Sites:  make([]SiteExplanation, m),
	}

	load := make([]float64, m)
	for s := 0; s < m; s++ {
		var members []int
		for j := 0; j < n; j++ {
			v := share[j][s]
			load[s] += v
			if v > tol {
				members = append(members, j)
			}
		}
		cap := in.SiteCapacity[s]
		se := SiteExplanation{
			Site:      s,
			Capacity:  cap,
			Load:      load[s],
			Residual:  cap - load[s],
			Saturated: load[s] >= cap-satTol,
			Jobs:      members,
		}
		if in.SiteName != nil {
			se.Name = in.SiteName[s]
		}
		ex.Sites[s] = se
	}

	for j := 0; j < n; j++ {
		var level, demand float64
		for s := 0; s < m; s++ {
			level += share[j][s]
			demand += in.Demand[j][s]
		}
		w := in.JobWeight(j)
		je := JobExplanation{
			Job:       j,
			Level:     level,
			NormLevel: level / w,
			Weight:    w,
			Demand:    demand,
		}
		if in.JobName != nil {
			je.Name = in.JobName[j]
		}
		if floors != nil {
			je.Floor = floors[j]
			// The floor binds when the job sits at it instead of at a
			// higher common level. Demand-capping dominates: a job that
			// received its whole demand needed no floor.
			je.FloorBound = floors[j] > tol && level <= floors[j]+tol && level < demand-tol
		}
		switch {
		case demand <= 0:
			je.Limit = ExplainZeroDemand
		case level >= demand-tol:
			je.Limit = ExplainDemandCapped
		case je.FloorBound:
			je.Limit = ExplainFloorBound
		default:
			je.Limit = ExplainBottlenecked
		}
		if je.Limit == ExplainBottlenecked || je.Limit == ExplainFloorBound {
			for s := 0; s < m; s++ {
				resDemand := in.Demand[j][s] - share[j][s]
				if resDemand <= tol {
					continue // no residual demand here, site cannot bind
				}
				if !ex.Sites[s].Saturated {
					continue // spare capacity, not a binding constraint
				}
				bs := BindingSite{
					Site:              s,
					Residual:          ex.Sites[s].Residual,
					JobResidualDemand: resDemand,
				}
				if in.SiteName != nil {
					bs.Name = in.SiteName[s]
				}
				je.BindingSites = append(je.BindingSites, bs)
			}
		}
		ex.Jobs[j] = je
	}

	ex.assignRounds(tol)
	return ex
}

// assignRounds reconstructs the freeze cascade by ranking distinct
// normalized levels: progressive filling freezes lower levels first, so
// the cluster of lowest NormLevels froze in round 1, the next distinct
// cluster in round 2, and so on. Levels within tol of each other (in
// normalized units) collapse into one round.
func (ex *Explanation) assignRounds(tol float64) {
	type jl struct {
		idx  int
		norm float64
	}
	levels := make([]jl, 0, len(ex.Jobs))
	for i := range ex.Jobs {
		if ex.Jobs[i].Limit == ExplainZeroDemand {
			ex.Jobs[i].FreezeRound = 0
			continue
		}
		levels = append(levels, jl{i, ex.Jobs[i].NormLevel})
	}
	sort.Slice(levels, func(a, b int) bool { return levels[a].norm < levels[b].norm })
	round := 0
	prev := math.Inf(-1)
	for _, l := range levels {
		if l.norm > prev+tol {
			round++
			prev = l.norm
		}
		ex.Jobs[l.idx].FreezeRound = round
	}
}

// JobByName returns the explanation row for the named job, or nil.
func (ex *Explanation) JobByName(name string) *JobExplanation {
	for i := range ex.Jobs {
		if ex.Jobs[i].Name == name {
			return &ex.Jobs[i]
		}
	}
	return nil
}
