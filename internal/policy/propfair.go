package policy

import (
	"context"
	"math"
	"sort"

	"repro/internal/core"
)

// PropFair is weighted proportional fairness (Bonald & Roberts): the
// allocation maximizes Σ_j w_j·log(a_j) over per-site shares x[j][s] with
// a_j = Σ_s x[j][s], subject to per-site capacities Σ_j x[j][s] ≤ c_s and
// per-site demand caps 0 ≤ x[j][s] ≤ d[j][s].
//
// The fast path is an iterative dual-price (tatonnement) market: each
// site carries a price p_s, each job buys its utility-maximizing bundle
// given the prices (fill cheapest sites until the marginal utility
// w_j/a_j drops to the next price), and congested sites reprice
// multiplicatively toward load = capacity. Log utilities are gross
// substitutes, so when the best response is single-valued the dynamics
// contract to the unique proportionally fair allocation.
//
// The best response is NOT single-valued everywhere: a job interior at
// two congested sites forces their prices to tie at the fixed point, and
// the strict cheapest-first fill order is discontinuous exactly at a tie
// — the price dynamics then limit-cycle instead of converging. When the
// tatonnement stalls, the solve falls back to projected gradient ascent
// on the primal shares: the objective is concave and the feasible set is
// a product of per-site capped simplices (projection is a scalar
// bisection per site), so the ascent has no kink to chatter on and
// converges deterministically.
type PropFair struct {
	// Tol is the relative capacity residual at convergence (default 1e-10).
	Tol float64
	// MaxIter bounds iterations in each phase (default 20000).
	MaxIter int
}

// NewPropFair returns a proportional-fairness policy with defaults.
func NewPropFair() *PropFair { return &PropFair{} }

func (p *PropFair) Name() string               { return "propfair" }
func (p *PropFair) Capabilities() Capabilities { return Capabilities{} }

func (p *PropFair) Fingerprint() uint64 {
	h := fnvString(fnvOffset, "propfair")
	h = fnvFloat(h, p.tol())
	return fnvUint64(h, uint64(p.maxIter()))
}

func (p *PropFair) tol() float64 {
	if p.Tol > 0 {
		return p.Tol
	}
	return 1e-10
}

func (p *PropFair) maxIter() int {
	if p.MaxIter > 0 {
		return p.MaxIter
	}
	return 20000
}

func (p *PropFair) Allocate(ctx context.Context, v *View) (*core.Allocation, Stats, error) {
	in := v.Inst
	if err := in.Validate(); err != nil {
		return nil, Stats{}, err
	}
	share, err := p.solve(ctx, in)
	if err != nil {
		return nil, Stats{}, err
	}
	return &core.Allocation{Inst: in, Share: share}, Stats{}, nil
}

func (p *PropFair) solve(ctx context.Context, in *core.Instance) ([][]float64, error) {
	n, m := in.NumJobs(), in.NumSites()
	share := make([][]float64, n)
	for j := range share {
		share[j] = make([]float64, m)
	}
	if n == 0 {
		return share, nil
	}

	// A site whose total demand fits its capacity is never congested: its
	// price is zero and every job takes its full demand there.
	demandSum := make([]float64, m)
	for j := 0; j < n; j++ {
		for s, d := range in.Demand[j] {
			demandSum[s] += d
		}
	}
	congested := make([]bool, m)
	anyCongested := false
	for s := 0; s < m; s++ {
		if demandSum[s] > in.SiteCapacity[s] && in.SiteCapacity[s] > 0 {
			congested[s] = true
			anyCongested = true
		}
	}

	price := make([]float64, m)
	var wSum float64
	for j := 0; j < n; j++ {
		wSum += in.JobWeight(j)
	}
	var cSum float64
	for s := 0; s < m; s++ {
		cSum += in.SiteCapacity[s]
	}
	init := 1.0
	if cSum > 0 {
		init = math.Max(wSum/cSum, 1e-12)
	}
	for s := 0; s < m; s++ {
		if congested[s] {
			price[s] = init
		}
	}

	// Phase 1: price tatonnement. Bounded well below MaxIter — when the
	// market has not cleared by then it is limit-cycling on a price tie,
	// and more sweeps cannot help.
	tatIters := p.maxIter()
	if tatIters > 1000 {
		tatIters = 1000
	}
	load := make([]float64, m)
	tol := p.tol()
	converged := false
	for iter := 0; iter < tatIters; iter++ {
		if iter%64 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		for s := range load {
			load[s] = 0
		}
		for j := 0; j < n; j++ {
			p.bestResponse(in, j, price, share[j])
			for s, x := range share[j] {
				load[s] += x
			}
		}
		if !anyCongested {
			return share, nil
		}
		// Converged when every congested site's load matches capacity (or
		// its price has collapsed: demand at price ~0 no longer fills it).
		maxResid := 0.0
		for s := 0; s < m; s++ {
			if !congested[s] {
				continue
			}
			resid := math.Abs(load[s]-in.SiteCapacity[s]) / in.SiteCapacity[s]
			if price[s] <= 1e-300 && load[s] <= in.SiteCapacity[s]*(1+tol) {
				continue // effectively free and uncongested at the fixed point
			}
			if resid > maxResid {
				maxResid = resid
			}
		}
		if maxResid <= tol {
			converged = true
			break
		}
		// Multiplicative repricing toward load = capacity. The damped
		// exponent keeps the gross-substitutes tatonnement contractive.
		for s := 0; s < m; s++ {
			if !congested[s] || price[s] <= 0 {
				continue
			}
			ratio := load[s] / in.SiteCapacity[s]
			if ratio <= 0 {
				ratio = tol // price far too high: collapse it quickly
			}
			price[s] *= math.Pow(ratio, 0.5)
		}
	}
	if !converged {
		// Phase 2: the market stalled on a price tie — finish on the primal.
		if err := p.ascent(ctx, in, share); err != nil {
			return nil, err
		}
	}

	// Exact feasibility: scale any residually over-capacity site down.
	for s := range load {
		load[s] = 0
	}
	for j := 0; j < n; j++ {
		for s, x := range share[j] {
			load[s] += x
		}
	}
	for s := 0; s < m; s++ {
		if load[s] <= in.SiteCapacity[s] || load[s] <= 0 {
			continue
		}
		f := in.SiteCapacity[s] / load[s]
		for j := 0; j < n; j++ {
			share[j][s] *= f
		}
	}
	return share, nil
}

// bestResponse fills x (len = sites) with job j's utility-maximizing
// bundle at the given prices: sites are taken in ascending price order,
// fully while the marginal utility w/a exceeds the next price, and the
// marginal site is filled partially up to a = w/p.
func (p *PropFair) bestResponse(in *core.Instance, j int, price []float64, x []float64) {
	type siteCost struct {
		s int
		p float64
	}
	m := len(price)
	order := make([]siteCost, 0, m)
	for s := 0; s < m; s++ {
		x[s] = 0
		if in.Demand[j][s] <= 0 {
			continue
		}
		order = append(order, siteCost{s, price[s]})
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].p != order[b].p {
			return order[a].p < order[b].p
		}
		return order[a].s < order[b].s
	})
	w := in.JobWeight(j)
	a := 0.0
	for _, sc := range order {
		d := in.Demand[j][sc.s]
		if sc.p <= 0 {
			// Free capacity: marginal utility w/a is always positive.
			x[sc.s] = d
			a += d
			continue
		}
		// Keep buying at this price while w/a > p, i.e. until a = w/p.
		want := w/sc.p - a
		if want <= 0 {
			break
		}
		take := math.Min(want, d)
		x[sc.s] = take
		a += take
	}
}

// ascent overwrites share with the proportionally fair allocation found
// by projected gradient ascent with backtracking line search: maximize
// Σ_j w_j·log(a_j) directly over the feasible polytope. It restarts from
// a deterministic point (full demand scaled per site to capacity) rather
// than the stalled tatonnement state, so the result never depends on
// where the limit cycle was interrupted.
func (p *PropFair) ascent(ctx context.Context, in *core.Instance, share [][]float64) error {
	n, m := in.NumJobs(), in.NumSites()
	demandSum := make([]float64, m)
	for j := 0; j < n; j++ {
		for s, d := range in.Demand[j] {
			demandSum[s] += d
		}
	}
	// A job is active when it can receive anything at all; inactive jobs
	// stay at zero and are excluded from the objective (log 0).
	active := make([]bool, n)
	for j := 0; j < n; j++ {
		for s := 0; s < m; s++ {
			if in.Demand[j][s] > 0 && in.SiteCapacity[s] > 0 {
				active[j] = true
				break
			}
		}
	}
	cur := make([][]float64, n)
	for j := 0; j < n; j++ {
		cur[j] = make([]float64, m)
		for s := 0; s < m; s++ {
			if !active[j] || in.Demand[j][s] <= 0 || in.SiteCapacity[s] <= 0 {
				continue
			}
			f := 1.0
			if demandSum[s] > in.SiteCapacity[s] {
				f = in.SiteCapacity[s] / demandSum[s]
			}
			cur[j][s] = in.Demand[j][s] * f
		}
	}

	agg := make([]float64, n)
	objective := func(x [][]float64) float64 {
		v := 0.0
		for j := 0; j < n; j++ {
			if !active[j] {
				continue
			}
			a := 0.0
			for _, xs := range x[j] {
				a += xs
			}
			agg[j] = a
			if a <= 0 {
				return math.Inf(-1)
			}
			v += in.JobWeight(j) * math.Log(a)
		}
		return v
	}

	cand := make([][]float64, n)
	grad := make([][]float64, n)
	for j := range cand {
		cand[j] = make([]float64, m)
		grad[j] = make([]float64, m)
	}
	col := make([]float64, n)
	dcol := make([]float64, n)

	f := objective(cur)
	eta := 1.0
	flat := 0
	for iter := 0; iter < p.maxIter(); iter++ {
		if iter%64 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		for j := 0; j < n; j++ {
			if !active[j] {
				continue
			}
			g := in.JobWeight(j) / agg[j]
			for s := 0; s < m; s++ {
				if in.Demand[j][s] > 0 {
					grad[j][s] = g
				} else {
					grad[j][s] = 0
				}
			}
		}
		improved := false
		for bt := 0; bt < 60; bt++ {
			for s := 0; s < m; s++ {
				for j := 0; j < n; j++ {
					col[j] = cur[j][s] + eta*grad[j][s]
					dcol[j] = in.Demand[j][s]
				}
				projectCappedSimplex(col, dcol, in.SiteCapacity[s])
				for j := 0; j < n; j++ {
					cand[j][s] = col[j]
				}
			}
			if fc := objective(cand); fc > f {
				improved = fc-f > 1e-13*(1+math.Abs(f))
				f = fc
				cur, cand = cand, cur
				eta *= 1.5
				break
			}
			eta *= 0.5
		}
		// agg must reflect the accepted iterate: a rejected final
		// candidate leaves stale aggregates behind.
		objective(cur)
		if improved {
			flat = 0
		} else if flat++; flat >= 32 {
			break
		}
	}
	for j := 0; j < n; j++ {
		copy(share[j], cur[j])
	}
	return nil
}

// projectCappedSimplex projects y (in place) onto
// {x : 0 ≤ x_j ≤ d_j, Σ_j x_j ≤ c} in Euclidean norm: clip, and if the
// clipped sum still exceeds c, shift by the λ ≥ 0 with
// Σ clip(y_j−λ, 0, d_j) = c, found by bisection (the shifted-clip sum is
// continuous and nonincreasing in λ).
func projectCappedSimplex(y, d []float64, c float64) {
	if c <= 0 {
		for j := range y {
			y[j] = 0
		}
		return
	}
	sum := 0.0
	hi := 0.0
	for j := range y {
		v := y[j]
		if v < 0 {
			v = 0
		} else if v > d[j] {
			v = d[j]
		}
		sum += v
		if y[j] > hi {
			hi = y[j]
		}
	}
	if sum <= c {
		for j := range y {
			if y[j] < 0 {
				y[j] = 0
			} else if y[j] > d[j] {
				y[j] = d[j]
			}
		}
		return
	}
	lo := 0.0
	for it := 0; it < 100 && hi-lo > 0; it++ {
		mid := 0.5 * (lo + hi)
		s := 0.0
		for j := range y {
			v := y[j] - mid
			if v < 0 {
				v = 0
			} else if v > d[j] {
				v = d[j]
			}
			s += v
		}
		if s > c {
			lo = mid
		} else {
			hi = mid
		}
	}
	lam := 0.5 * (lo + hi)
	for j := range y {
		v := y[j] - lam
		if v < 0 {
			v = 0
		} else if v > d[j] {
			v = d[j]
		}
		y[j] = v
	}
}
