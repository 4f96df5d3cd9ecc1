package lp

import (
	"math"
	"math/rand"
	"testing"
)

func feq(a, b float64) bool { return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b)) }

func TestMaximizeBasic(t *testing.T) {
	// max 3x + 2y s.t. x+y <= 4, x <= 2 -> x=2, y=2, val=10.
	x, val, st := Maximize(
		[]float64{3, 2},
		[][]float64{{1, 1}, {1, 0}},
		[]float64{4, 2},
	)
	if st != Optimal {
		t.Fatalf("status %v", st)
	}
	if !feq(val, 10) || !feq(x[0], 2) || !feq(x[1], 2) {
		t.Fatalf("x=%v val=%g", x, val)
	}
}

func TestMaximizeClassic(t *testing.T) {
	// The textbook LP: max 5x + 4y s.t. 6x+4y <= 24, x+2y <= 6.
	// Optimum at x=3, y=1.5, val=21.
	x, val, st := Maximize(
		[]float64{5, 4},
		[][]float64{{6, 4}, {1, 2}},
		[]float64{24, 6},
	)
	if st != Optimal || !feq(val, 21) {
		t.Fatalf("x=%v val=%g st=%v", x, val, st)
	}
}

func TestUnbounded(t *testing.T) {
	_, _, st := Maximize([]float64{1}, nil, nil)
	if st != Unbounded {
		t.Fatalf("status %v, want unbounded", st)
	}
	// y bounded, x not.
	_, _, st = Maximize([]float64{1, 1}, [][]float64{{0, 1}}, []float64{5})
	if st != Unbounded {
		t.Fatalf("status %v, want unbounded", st)
	}
}

func TestInfeasible(t *testing.T) {
	// x <= -1 with x >= 0.
	_, _, st := Maximize([]float64{1}, [][]float64{{1}}, []float64{-1})
	if st != Infeasible {
		t.Fatalf("status %v, want infeasible", st)
	}
	// x + y >= 5 and x + y <= 3.
	_, ok := Feasible(2,
		[][]float64{{1, 1}, {-1, -1}}, []float64{3, -5})
	if ok {
		t.Fatal("infeasible system accepted")
	}
}

func TestNegativeRHS(t *testing.T) {
	// -x <= -2 means x >= 2; max -x s.t. x >= 2, x <= 5 -> x=2.
	x, val, st := Maximize(
		[]float64{-1},
		[][]float64{{-1}, {1}},
		[]float64{-2, 5},
	)
	if st != Optimal || !feq(x[0], 2) || !feq(val, -2) {
		t.Fatalf("x=%v val=%g st=%v", x, val, st)
	}
}

func TestEqualityConstraints(t *testing.T) {
	// max x + y s.t. x + y = 3, x <= 1 -> x=1, y=2 (any split; val=3). The
	// equality is the pair x + y <= 3, -x - y <= -3.
	x, val, st := Solve(Problem{
		C:       []float64{1, 1},
		A:       [][]float64{{1, 0}, {1, 1}, {-1, -1}},
		B:       []float64{1, 3, -3},
		NumVars: 2,
	})
	if st != Optimal || !feq(val, 3) {
		t.Fatalf("x=%v val=%g st=%v", x, val, st)
	}
	if x[0] > 1+1e-9 {
		t.Fatalf("x=%v violates x0<=1", x)
	}
}

func TestRedundantEqualities(t *testing.T) {
	// The equality x + y = 2, as an inequality pair, stated twice: the
	// redundant rows must not break phase 1.
	x, ok := Feasible(2,
		[][]float64{{1, 1}, {-1, -1}, {1, 1}, {-1, -1}}, []float64{2, -2, 2, -2})
	if !ok {
		t.Fatal("redundant system rejected")
	}
	if !feq(x[0]+x[1], 2) {
		t.Fatalf("x=%v", x)
	}
}

func TestFeasiblePoint(t *testing.T) {
	// x0 >= 4 within x0 + x1 + x2 <= 10.
	x, ok := Feasible(3,
		[][]float64{{1, 1, 1}, {-1, 0, 0}}, []float64{10, -4})
	if !ok {
		t.Fatal("feasible system rejected")
	}
	if x[0] < 4-1e-9 || x[1] < -1e-9 || x[2] < -1e-9 || x[0]+x[1]+x[2] > 10+1e-9 {
		t.Fatalf("x=%v", x)
	}
}

func TestDegenerateZeroVars(t *testing.T) {
	x, _, st := Solve(Problem{NumVars: 0})
	if st != Optimal || len(x) != 0 {
		t.Fatalf("x=%v st=%v", x, st)
	}
}

func TestTransportationLP(t *testing.T) {
	// Two jobs to two sites, one resource: matches a max-flow instance.
	// Variables: x00 x01 x10 x11 (job,site).
	// max sum(x) s.t. per-site capacity 1, per-job cap 1.5.
	x, val, st := Maximize(
		[]float64{1, 1, 1, 1},
		[][]float64{
			{1, 0, 1, 0}, // site 0
			{0, 1, 0, 1}, // site 1
			{1, 1, 0, 0}, // job 0 demand
			{0, 0, 1, 1}, // job 1 demand
		},
		[]float64{1, 1, 1.5, 1.5},
	)
	if st != Optimal || !feq(val, 2) {
		t.Fatalf("x=%v val=%g st=%v", x, val, st)
	}
}

func TestRandomizedFeasibilityAndOptimality(t *testing.T) {
	// Properties: the returned solution satisfies all constraints, and no
	// random feasible point beats the optimum.
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(5)
		mA := 1 + rng.Intn(5)
		c := make([]float64, n)
		for j := range c {
			c[j] = rng.Float64()*4 - 1
		}
		a := make([][]float64, mA)
		b := make([]float64, mA)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = rng.Float64() // non-negative rows keep it bounded
			}
			b[i] = rng.Float64() * 5
		}
		// Add a box constraint per variable so the LP is surely bounded.
		for j := 0; j < n; j++ {
			row := make([]float64, n)
			row[j] = 1
			a = append(a, row)
			b = append(b, 1+rng.Float64()*5)
		}
		x, val, st := Maximize(c, a, b)
		if st != Optimal {
			t.Fatalf("trial %d: status %v", trial, st)
		}
		for i := range a {
			var lhs float64
			for j := range x {
				lhs += a[i][j] * x[j]
			}
			if lhs > b[i]+1e-6 {
				t.Fatalf("trial %d: constraint %d violated: %g > %g", trial, i, lhs, b[i])
			}
		}
		for j := range x {
			if x[j] < -1e-9 {
				t.Fatalf("trial %d: negative x[%d]=%g", trial, j, x[j])
			}
		}
		// Sample random feasible points; none may beat val.
		for k := 0; k < 50; k++ {
			y := make([]float64, n)
			for j := range y {
				y[j] = rng.Float64() * 2
			}
			ok := true
			for i := range a {
				var lhs float64
				for j := range y {
					lhs += a[i][j] * y[j]
				}
				if lhs > b[i] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			var obj float64
			for j := range y {
				obj += c[j] * y[j]
			}
			if obj > val+1e-6*(1+math.Abs(val)) {
				t.Fatalf("trial %d: random point beats optimum: %g > %g", trial, obj, val)
			}
		}
	}
}

func TestDegenerateCycleGuard(t *testing.T) {
	// A classic degenerate LP (Beale's example rescaled): Bland's rule
	// must terminate.
	c := []float64{0.75, -150, 0.02, -6}
	a := [][]float64{
		{0.25, -60, -0.04, 9},
		{0.5, -90, -0.02, 3},
		{0, 0, 1, 0},
	}
	b := []float64{0, 0, 1}
	x, val, st := Maximize(c, a, b)
	if st != Optimal {
		t.Fatalf("status %v", st)
	}
	if !feq(val, 0.05) {
		t.Fatalf("x=%v val=%g, want 1/20", x, val)
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" ||
		Unbounded.String() != "unbounded" || Status(9).String() == "" {
		t.Fatal("status strings")
	}
}
