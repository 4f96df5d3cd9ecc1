// Package spill implements locality-relaxed max-min fairness: jobs may be
// served at sites without their data ("remote" slots) at efficiency
// Gamma < 1, and fairness is defined on *useful* rates
//
//	u_j = sum_s local[j][s] + Gamma * sum_s remote[j][s],
//
// the throughput the job actually experiences. Applying plain AMF to a
// locality-relaxed demand matrix is a pitfall — it equalizes raw resource
// units and happily serves a job entirely through discounted remote slots
// (experiment X3 demonstrates the collapse); the allocator here runs
// progressive filling directly on useful rates, with an LP feasibility
// oracle because useful-rate targets mix two variable classes per
// job-site pair.
package spill

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/lp"
)

// Config parameterizes the relaxation.
type Config struct {
	// RemotePerSite is the number of remote slots a job can occupy at each
	// site.
	RemotePerSite float64
	// Gamma is the useful work per remote resource unit, in [0, 1].
	Gamma float64
	// Eps is the relative tolerance of the progressive filling (default
	// 1e-6).
	Eps float64
}

func (c Config) eps() float64 {
	if c.Eps > 0 {
		return c.Eps
	}
	return 1e-6
}

// Result is a locality-aware allocation.
type Result struct {
	// Local[j][s] serves job j's local work at site s (within Demand).
	Local [][]float64
	// Remote[j][s] serves job j remotely at site s (within RemotePerSite).
	Remote [][]float64
	// Useful[j] is the locality-discounted rate sum(local) + Gamma*sum(remote).
	Useful []float64
}

// MaxMinUseful computes the allocation whose useful-rate vector is max-min
// fair over all locality-relaxed placements.
func (c Config) MaxMinUseful(in *core.Instance) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if c.Gamma < 0 || c.Gamma > 1 || math.IsNaN(c.Gamma) {
		return nil, fmt.Errorf("spill: gamma %g out of [0,1]", c.Gamma)
	}
	if c.RemotePerSite < 0 || math.IsNaN(c.RemotePerSite) {
		return nil, fmt.Errorf("spill: negative remote slots %g", c.RemotePerSite)
	}
	n, m := in.NumJobs(), in.NumSites()

	// Maximum useful rate each job could reach alone: at each site it
	// takes local slots first, then remote ones, up to the capacity.
	uMax := make([]float64, n)
	for j := 0; j < n; j++ {
		for s := 0; s < m; s++ {
			take := math.Min(in.Demand[j][s]+c.RemotePerSite, in.SiteCapacity[s])
			localPart := math.Min(take, in.Demand[j][s])
			uMax[j] += localPart + c.Gamma*(take-localPart)
		}
	}

	frozen := make([]bool, n)
	level := make([]float64, n)
	remaining := 0
	for j := 0; j < n; j++ {
		if uMax[j] <= 0 {
			frozen[j] = true
		} else {
			remaining++
		}
	}

	target := func(t float64) []float64 {
		out := make([]float64, n)
		for j := 0; j < n; j++ {
			if frozen[j] {
				out[j] = level[j]
			} else {
				out[j] = math.Min(t*in.JobWeight(j), uMax[j])
			}
		}
		return out
	}

	var last *Result
	for round := 0; remaining > 0; round++ {
		if round > n {
			return nil, fmt.Errorf("spill: no progress after %d rounds", round)
		}
		hi := 0.0
		for j := 0; j < n; j++ {
			if !frozen[j] {
				hi = math.Max(hi, uMax[j]/in.JobWeight(j))
			}
		}
		if r, ok := c.feasible(in, target(hi)); ok {
			for j := 0; j < n; j++ {
				if !frozen[j] {
					frozen[j] = true
					level[j] = uMax[j]
					remaining--
				}
			}
			last = r
			break
		}
		lo := 0.0
		ttol := c.eps() * math.Max(hi, 1e-12)
		var atLo *Result
		for hi-lo > ttol {
			mid := (lo + hi) / 2
			if r, ok := c.feasible(in, target(mid)); ok {
				lo = mid
				atLo = r
			} else {
				hi = mid
			}
		}
		tstar := lo
		last = atLo
		frozeAny := false
		bump := math.Max(50*ttol, 1e-9)
		base := target(tstar)
		for j := 0; j < n; j++ {
			if frozen[j] {
				continue
			}
			if tstar*in.JobWeight(j) >= uMax[j]-ttol {
				frozen[j] = true
				level[j] = uMax[j]
				frozeAny = true
				remaining--
				continue
			}
			probe := append([]float64(nil), base...)
			probe[j] += bump
			if _, ok := c.feasible(in, probe); !ok {
				frozen[j] = true
				level[j] = base[j]
				frozeAny = true
				remaining--
			}
		}
		if !frozeAny {
			return nil, fmt.Errorf("spill: bottleneck at %g froze no job", tstar)
		}
	}

	r, ok := c.feasible(in, level)
	if !ok {
		if last == nil {
			return nil, fmt.Errorf("spill: final levels infeasible")
		}
		r = last
	}
	return r, nil
}

// feasible tests whether every job can hold its useful-rate target.
// Variables: local[j][s] then remote[j][s], flattened.
func (c Config) feasible(in *core.Instance, targets []float64) (*Result, bool) {
	n, m := in.NumJobs(), in.NumSites()
	nv := 2 * n * m
	li := func(j, s int) int { return j*m + s }
	ri := func(j, s int) int { return n*m + j*m + s }

	var a [][]float64
	var b []float64
	// Bounds.
	for j := 0; j < n; j++ {
		for s := 0; s < m; s++ {
			row := make([]float64, nv)
			row[li(j, s)] = 1
			a = append(a, row)
			b = append(b, in.Demand[j][s])
			row2 := make([]float64, nv)
			row2[ri(j, s)] = 1
			a = append(a, row2)
			b = append(b, c.RemotePerSite)
		}
	}
	// Site capacities.
	for s := 0; s < m; s++ {
		row := make([]float64, nv)
		for j := 0; j < n; j++ {
			row[li(j, s)] = 1
			row[ri(j, s)] = 1
		}
		a = append(a, row)
		b = append(b, in.SiteCapacity[s])
	}
	// Useful-rate floors: -(sum local + gamma sum remote) <= -target.
	for j := 0; j < n; j++ {
		row := make([]float64, nv)
		for s := 0; s < m; s++ {
			row[li(j, s)] = -1
			row[ri(j, s)] = -c.Gamma
		}
		a = append(a, row)
		b = append(b, -targets[j])
	}

	x, ok := lp.Feasible(nv, a, b)
	if !ok {
		return nil, false
	}
	res := &Result{
		Local:  make([][]float64, n),
		Remote: make([][]float64, n),
		Useful: make([]float64, n),
	}
	for j := 0; j < n; j++ {
		res.Local[j] = make([]float64, m)
		res.Remote[j] = make([]float64, m)
		for s := 0; s < m; s++ {
			res.Local[j][s] = x[li(j, s)]
			res.Remote[j][s] = x[ri(j, s)]
			res.Useful[j] += res.Local[j][s] + c.Gamma*res.Remote[j][s]
		}
	}
	return res, true
}

// CheckFeasible verifies bounds and capacities of a Result within tol.
func (r *Result) CheckFeasible(in *core.Instance, cfg Config, tol float64) error {
	for j := range r.Local {
		for s := range r.Local[j] {
			if r.Local[j][s] < -tol || r.Local[j][s] > in.Demand[j][s]+tol {
				return fmt.Errorf("spill: local[%d][%d]=%g outside [0,%g]",
					j, s, r.Local[j][s], in.Demand[j][s])
			}
			if r.Remote[j][s] < -tol || r.Remote[j][s] > cfg.RemotePerSite+tol {
				return fmt.Errorf("spill: remote[%d][%d]=%g outside [0,%g]",
					j, s, r.Remote[j][s], cfg.RemotePerSite)
			}
		}
	}
	for s := range in.SiteCapacity {
		var load float64
		for j := range r.Local {
			load += r.Local[j][s] + r.Remote[j][s]
		}
		if load > in.SiteCapacity[s]+tol {
			return fmt.Errorf("spill: site %d load %g exceeds %g", s, load, in.SiteCapacity[s])
		}
	}
	return nil
}
