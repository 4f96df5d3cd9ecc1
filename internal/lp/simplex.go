// Package lp implements a small dense two-phase simplex solver for linear
// programs in the form
//
//	maximize c·x   subject to   A x ≤ b,  E x = f,  x ≥ 0.
//
// It is the feasibility oracle behind the locality-relaxed allocator
// (internal/spill), where useful-rate targets mix local and remote
// variables per job-site pair and make the feasible region a general
// polytope rather than a flow polytope.
// Pivoting uses Bland's rule, so the solver cannot cycle; it is built for
// correctness and the moderate sizes of this repository's experiments
// (hundreds of variables), not for industrial scale.
package lp

import (
	"fmt"
	"math"
)

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means an optimal solution was found.
	Optimal Status = iota
	// Infeasible means the constraints admit no solution.
	Infeasible
	// Unbounded means the objective can grow without limit.
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

const eps = 1e-9

// Problem is a linear program in inequality/equality form.
type Problem struct {
	// C is the objective (maximized). May be nil for pure feasibility.
	C []float64
	// A, B are the inequality constraints A x <= B.
	A [][]float64
	B []float64
	// E, F are the equality constraints E x = F.
	E [][]float64
	F []float64
	// NumVars is the number of variables (len of each row).
	NumVars int
}

// Solve runs two-phase simplex. On Optimal it returns the solution vector
// and objective value.
func Solve(p Problem) ([]float64, float64, Status) {
	n := p.NumVars
	if n <= 0 {
		// Degenerate: only constant constraints.
		for i, bi := range p.B {
			_ = i
			if bi < -eps {
				return nil, 0, Infeasible
			}
		}
		for _, fi := range p.F {
			if math.Abs(fi) > eps {
				return nil, 0, Infeasible
			}
		}
		return []float64{}, 0, Optimal
	}
	mIneq := len(p.A)
	mEq := len(p.E)
	m := mIneq + mEq

	// Column layout: x (n) | slacks (mIneq) | artificials (<= m).
	// Every row is normalized to b >= 0 before adding slack/artificial.
	type rowSpec struct {
		coeff []float64
		b     float64
		slack int // column of the slack (+1 coefficient), or -1
		art   int // column of the artificial, or -1
	}
	rows := make([]rowSpec, 0, m)
	col := n
	slackCols := make([]int, mIneq)
	for i := 0; i < mIneq; i++ {
		slackCols[i] = col
		col++
	}
	artStart := col
	numArt := 0

	addRow := func(coeff []float64, b float64, slackCol int) {
		sign := 1.0
		if b < 0 {
			sign = -1
			b = -b
		}
		r := rowSpec{coeff: make([]float64, n), b: b, slack: -1, art: -1}
		for j := 0; j < n; j++ {
			r.coeff[j] = sign * coeff[j]
		}
		if slackCol >= 0 {
			r.slack = slackCol
		}
		// A slack with +1 coefficient can serve as the initial basic
		// variable; a flipped slack (-1) or an equality needs an
		// artificial.
		if slackCol < 0 || sign < 0 {
			r.art = artStart + numArt
			numArt++
		}
		rows = append(rows, r)
		_ = sign
	}
	for i := 0; i < mIneq; i++ {
		if len(p.A[i]) != n {
			panic(fmt.Sprintf("lp: row %d has %d coefficients, want %d", i, len(p.A[i]), n))
		}
		addRow(p.A[i], p.B[i], slackCols[i])
	}
	for i := 0; i < mEq; i++ {
		if len(p.E[i]) != n {
			panic(fmt.Sprintf("lp: eq row %d has %d coefficients, want %d", i, len(p.E[i]), n))
		}
		addRow(p.E[i], p.F[i], -1)
	}

	totalCols := artStart + numArt
	// Tableau: m rows x (totalCols + 1); last column is b.
	tab := make([][]float64, m)
	basis := make([]int, m)
	for i, r := range rows {
		tab[i] = make([]float64, totalCols+1)
		copy(tab[i], r.coeff)
		if r.slack >= 0 {
			// slack sign: +1 normally; if the row was flipped the slack
			// coefficient flips too.
			s := 1.0
			// Detect flip: recompute from original b sign.
			if i < mIneq && p.B[i] < 0 {
				s = -1
			}
			tab[i][r.slack] = s
		}
		if r.art >= 0 {
			tab[i][r.art] = 1
			basis[i] = r.art
		} else {
			basis[i] = r.slack
		}
		tab[i][totalCols] = r.b
	}

	// Phase 1: minimize the sum of artificials (maximize its negation).
	if numArt > 0 {
		obj := make([]float64, totalCols)
		for c := artStart; c < totalCols; c++ {
			obj[c] = -1 // maximize -(sum of artificials)
		}
		val, st := simplex(tab, basis, obj, totalCols)
		if st == Unbounded {
			// Cannot happen: phase-1 objective is bounded above by 0.
			return nil, 0, Infeasible
		}
		if val < -1e-7 {
			return nil, 0, Infeasible
		}
		// Pivot any artificial still in the basis out (or recognise the
		// row as redundant).
		for i := 0; i < m; i++ {
			if basis[i] < artStart {
				continue
			}
			pivoted := false
			for c := 0; c < artStart; c++ {
				if math.Abs(tab[i][c]) > eps {
					pivot(tab, basis, i, c, totalCols)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant constraint: zero the row so it cannot bind.
				for c := 0; c <= totalCols; c++ {
					tab[i][c] = 0
				}
			}
		}
		// Remove artificial columns from consideration by zeroing them.
		for i := 0; i < m; i++ {
			for c := artStart; c < totalCols; c++ {
				tab[i][c] = 0
			}
		}
	}

	// Phase 2: the real objective over x (and zero on slacks).
	obj := make([]float64, totalCols)
	if p.C != nil {
		if len(p.C) != n {
			panic(fmt.Sprintf("lp: objective has %d coefficients, want %d", len(p.C), n))
		}
		copy(obj, p.C)
	}
	val, st := simplex(tab, basis, obj, totalCols)
	if st == Unbounded {
		return nil, 0, Unbounded
	}
	x := make([]float64, n)
	for i, b := range basis {
		if b >= 0 && b < n {
			x[b] = tab[i][totalCols]
		}
	}
	return x, val, Optimal
}

// simplex maximizes obj over the current tableau using Bland's rule.
// It returns the objective value at the final basis.
func simplex(tab [][]float64, basis []int, obj []float64, rhs int) (float64, Status) {
	m := len(tab)
	// Reduced costs: z_j - c_j computed on demand from the basis.
	for iter := 0; ; iter++ {
		if iter > 50000 {
			// Bland's rule precludes cycling; this guards against bugs.
			panic("lp: simplex iteration limit")
		}
		// cost[j] = c_j - sum_i c_B(i) * tab[i][j]
		entering := -1
		for j := 0; j < rhs; j++ {
			red := obj[j]
			for i := 0; i < m; i++ {
				if basis[i] >= 0 {
					red -= obj[basis[i]] * tab[i][j]
				}
			}
			if red > eps {
				entering = j // Bland: first improving column
				break
			}
		}
		if entering < 0 {
			var val float64
			for i := 0; i < m; i++ {
				if basis[i] >= 0 {
					val += obj[basis[i]] * tab[i][rhs]
				}
			}
			return val, Optimal
		}
		// Ratio test with Bland tie-break on the leaving basic variable.
		leaving := -1
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			if tab[i][entering] > eps {
				ratio := tab[i][rhs] / tab[i][entering]
				if ratio < best-eps ||
					(ratio < best+eps && (leaving < 0 || basis[i] < basis[leaving])) {
					best = ratio
					leaving = i
				}
			}
		}
		if leaving < 0 {
			return 0, Unbounded
		}
		pivot(tab, basis, leaving, entering, rhs)
	}
}

// pivot makes column c basic in row r.
func pivot(tab [][]float64, basis []int, r, c, rhs int) {
	pv := tab[r][c]
	for j := 0; j <= rhs; j++ {
		tab[r][j] /= pv
	}
	for i := range tab {
		if i == r {
			continue
		}
		f := tab[i][c]
		if f == 0 {
			continue
		}
		for j := 0; j <= rhs; j++ {
			tab[i][j] -= f * tab[r][j]
		}
	}
	basis[r] = c
}

// Maximize solves max c·x s.t. A x <= b, x >= 0.
func Maximize(c []float64, a [][]float64, b []float64) ([]float64, float64, Status) {
	return Solve(Problem{C: c, A: a, B: b, NumVars: len(c)})
}

// Feasible reports whether {A x <= b, E x = f, x >= 0} has a solution and
// returns one.
func Feasible(numVars int, a [][]float64, b []float64, e [][]float64, f []float64) ([]float64, bool) {
	x, _, st := Solve(Problem{A: a, B: b, E: e, F: f, NumVars: numVars})
	return x, st == Optimal
}
