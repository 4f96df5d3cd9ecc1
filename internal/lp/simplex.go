// Package lp implements a small dense two-phase simplex solver for linear
// programs in the form
//
//	maximize c·x   subject to   A x ≤ b,  x ≥ 0.
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

// Problem is a linear program in inequality form.
type Problem struct {
	// C is the objective (maximized). May be nil for pure feasibility.
	C []float64
	// A, B are the constraints A x <= B.
	A [][]float64
	B []float64
	// NumVars is the number of variables (len of each row).
	NumVars int
}

// Solve runs two-phase simplex. On Optimal it returns the solution vector
// and objective value.
func Solve(p Problem) ([]float64, float64, Status) {
	n := p.NumVars
	if n <= 0 {
		// Degenerate: only constant constraints.
		for _, bi := range p.B {
			if bi < -eps {
				return nil, 0, Infeasible
			}
		}
		return []float64{}, 0, Optimal
	}
	m := len(p.A)

	// Column layout: x (n) | slacks (m) | artificials (one per row with
	// b < 0). Such a row is negated to make its right-hand side
	// non-negative, which flips its slack to -1, so an artificial is its
	// initial basic variable; every other row starts with its slack basic.
	artStart := n + m
	numArt := 0
	for i := range p.A {
		if p.B[i] < 0 {
			numArt++
		}
	}
	totalCols := artStart + numArt
	// Tableau: m rows x (totalCols + 1); last column is b.
	tab := make([][]float64, m)
	basis := make([]int, m)
	art := artStart
	for i, row := range p.A {
		if len(row) != n {
			panic(fmt.Sprintf("lp: row %d has %d coefficients, want %d", i, len(row), n))
		}
		sign := 1.0
		if p.B[i] < 0 {
			sign = -1
		}
		tab[i] = make([]float64, totalCols+1)
		for j, a := range row {
			tab[i][j] = sign * a
		}
		tab[i][n+i] = sign
		tab[i][totalCols] = sign * p.B[i]
		if sign < 0 {
			tab[i][art] = 1
			basis[i] = art
			art++
		} else {
			basis[i] = n + i
		}
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

// Feasible reports whether {A x <= b, x >= 0} has a solution and returns
// one.
func Feasible(numVars int, a [][]float64, b []float64) ([]float64, bool) {
	x, _, st := Solve(Problem{A: a, B: b, NumVars: numVars})
	return x, st == Optimal
}
