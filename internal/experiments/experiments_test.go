package experiments

import (
	"math"
	"strings"
	"testing"
)

// quick runs every experiment in Quick mode; shape assertions live in the
// dedicated tests below.
func quickOpt() Options { return Options{Quick: true, Seed: 99} }

func TestIDsAndRun(t *testing.T) {
	ids := IDs()
	if len(ids) != 12 {
		t.Fatalf("got %d experiments", len(ids))
	}
	entries := List()
	if len(entries) != len(ids) || entries[0].ID != "E1" || entries[0].Title == "" {
		t.Fatalf("List() inconsistent: %v", entries)
	}
	r, err := Run("e4", quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "E4" {
		t.Fatalf("got %s", r.ID)
	}
	if _, err := Run("E99", quickOpt()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRenderContainsContent(t *testing.T) {
	r, err := Run("E4", quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	out := r.Render()
	for _, want := range []string{"E4", "pareto", "sharing incentive"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// seriesCol extracts column k of a series as (x, y) pairs.
func lastPoint(ys []float64) float64 { return ys[len(ys)-1] }

func TestE1ShapeAMFBeatsBaselineUnderSkew(t *testing.T) {
	r := E1AllocationBalance(quickOpt())
	jain := r.Series[0]
	// Columns: psmmf, amf, amf-enhanced. At the highest skew AMF must beat
	// PS-MMF clearly on Jain index.
	ps := lastPoint(jain.Y[0])
	amf := lastPoint(jain.Y[1])
	if amf <= ps {
		t.Fatalf("at max skew Jain(amf)=%g not above Jain(psmmf)=%g", amf, ps)
	}
	// At zero skew the two should be in the same ballpark.
	if math.Abs(jain.Y[1][0]-jain.Y[0][0]) > 0.4 {
		t.Fatalf("at alpha=0 the gap is implausibly large: %g vs %g",
			jain.Y[1][0], jain.Y[0][0])
	}
	// The AMF advantage must grow with skew.
	gapLow := jain.Y[1][0] - jain.Y[0][0]
	gapHigh := lastPoint(jain.Y[1]) - lastPoint(jain.Y[0])
	if gapHigh <= gapLow {
		t.Fatalf("AMF advantage did not widen with skew: %g -> %g", gapLow, gapHigh)
	}
}

func TestE2ShapeAMFLiftsTail(t *testing.T) {
	r := E2AllocationCDF(quickOpt())
	s := r.Series[0]
	// At the lowest plotted CDF fraction, AMF's value must exceed
	// PS-MMF's (no starved tail).
	if s.Y[1][0] <= s.Y[0][0] {
		t.Fatalf("AMF lowest decile %g not above PS-MMF %g", s.Y[1][0], s.Y[0][0])
	}
	// CDF values are nondecreasing in the fraction.
	for k := range s.Names {
		for i := 1; i < len(s.X); i++ {
			if s.Y[k][i] < s.Y[k][i-1]-1e-9 {
				t.Fatalf("series %s not nondecreasing", s.Names[k])
			}
		}
	}
}

func TestE4ShapeNoPropertyViolations(t *testing.T) {
	r := E4Properties(quickOpt())
	tb := r.Tables[0]
	// Rows: pareto, max-min, envy, strategy-proofness must report 0
	// violations; sharing incentive must report 1 (the counterexample).
	for i, row := range tb.Rows {
		switch row[0] {
		case "sharing incentive":
			if row[2] != "1" {
				t.Fatalf("row %d (%s): violations %s, want 1", i, row[0], row[2])
			}
		default:
			if row[2] != "0" {
				t.Fatalf("row %d (%s): violations %s, want 0", i, row[0], row[2])
			}
		}
	}
}

func TestE5ShapeEnhancedAlwaysZero(t *testing.T) {
	r := E5SharingIncentive(quickOpt())
	s := r.Series[0]
	for i := range s.X {
		if s.Y[2][i] != 0 {
			t.Fatalf("enhanced AMF violated sharing incentive at contention %g: %g",
				s.X[i], s.Y[2][i])
		}
		if s.Y[0][i] != 0 {
			t.Fatalf("PS-MMF violated sharing incentive at contention %g: %g",
				s.X[i], s.Y[0][i])
		}
	}
	// Plain AMF: no violations without contention, full violation with it.
	if s.Y[1][0] != 0 {
		t.Fatalf("AMF violated without contention: %g", s.Y[1][0])
	}
	for i := 1; i < len(s.X); i++ {
		if s.Y[1][i] < 0.99 {
			t.Fatalf("AMF violation fraction %g at contention %g, want ~1",
				s.Y[1][i], s.X[i])
		}
	}
}

func TestE6ShapeUtilizationClose(t *testing.T) {
	r := E6EnhancedCost(quickOpt())
	util := r.Series[2]
	for i := range util.X {
		if math.Abs(util.Y[0][i]-util.Y[1][i]) > 0.05 {
			t.Fatalf("utilization gap at alpha=%g: amf %g vs enhanced %g",
				util.X[i], util.Y[0][i], util.Y[1][i])
		}
	}
}

func TestE7ShapeAddonImprovesStretch(t *testing.T) {
	r := E7AddonBenefit(quickOpt())
	mean := r.Series[0]
	for i := range mean.X {
		if mean.Y[1][i] > mean.Y[0][i]+0.05 {
			t.Fatalf("add-on worsened mean stretch at alpha=%g: %g -> %g",
				mean.X[i], mean.Y[0][i], mean.Y[1][i])
		}
	}
	// The optimized stretch must stay moderate (contention bounds it above
	// 1, but the witness's pathological splits are gone).
	for i := range mean.X {
		if mean.Y[1][i] > 10 {
			t.Fatalf("optimized mean stretch %g at alpha=%g implausibly high",
				mean.Y[1][i], mean.X[i])
		}
	}
}

func TestE3ShapeRunsAndOrdersPolicies(t *testing.T) {
	r := E3CompletionTime(quickOpt())
	mean := r.Series[0]
	// At the highest skew, AMF should not be worse than PS-MMF on mean JCT
	// by more than a small margin (statistically it should be better).
	ps, amf := lastPoint(mean.Y[0]), lastPoint(mean.Y[1])
	if amf > ps*1.15 {
		t.Fatalf("at max skew AMF mean JCT %g much worse than PS-MMF %g", amf, ps)
	}
}

func TestE8RunsAllLoadsAndPolicies(t *testing.T) {
	r := E8OnlineSimulation(quickOpt())
	tb := r.Tables[0]
	if len(tb.Rows) != 12 { // 3 loads x 4 policies
		t.Fatalf("got %d rows", len(tb.Rows))
	}
}

func TestE9ReportsSpeedup(t *testing.T) {
	r := E9Scalability(quickOpt())
	tb := r.Tables[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("got %d rows", len(tb.Rows))
	}
}

func TestE10RunsBothSimulators(t *testing.T) {
	r := E10SlotFluidCrossCheck(quickOpt())
	tb := r.Tables[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("got %d rows", len(tb.Rows))
	}
}

func TestX2ShapeStalenessMonotoneish(t *testing.T) {
	r := X2ReallocAblation(quickOpt())
	s := r.Series[0]
	// Solves decrease as the grid coarsens; event-driven JCT is never
	// beaten by a coarse grid (beyond noise).
	solves := s.Y[2]
	for i := 1; i < len(solves); i++ {
		if solves[i] > solves[i-1]+1e-9 {
			t.Fatalf("solves increased with interval: %v", solves)
		}
	}
	if s.Y[0][len(s.X)-1] < s.Y[0][0]*0.95 {
		t.Fatalf("coarsest grid beat event-driven: %g vs %g",
			s.Y[0][len(s.X)-1], s.Y[0][0])
	}
}

func TestX3ShapeUsefulAwareDominates(t *testing.T) {
	r := X3LocalityRelaxation(quickOpt())
	min := r.Series[0]
	// useful-maxmin never drops below the pinned baseline and meets it at
	// gamma=0; the min rate is nondecreasing in gamma.
	for i := range min.X {
		if min.Y[2][i] < min.Y[0][i]-1e-6 {
			t.Fatalf("useful-maxmin below pinned at gamma=%g: %g < %g",
				min.X[i], min.Y[2][i], min.Y[0][i])
		}
		if i > 0 && min.Y[2][i] < min.Y[2][i-1]-1e-6 {
			t.Fatalf("useful-maxmin min rate not monotone in gamma")
		}
	}
	if math.Abs(min.Y[2][0]-min.Y[0][0]) > 1e-6 {
		t.Fatalf("gamma=0 should match pinned: %g vs %g", min.Y[2][0], min.Y[0][0])
	}
	// The oblivious relaxation collapses at gamma=0.
	if min.Y[1][0] > 0.05 {
		t.Fatalf("oblivious min rate %g at gamma=0, expected collapse", min.Y[1][0])
	}
}
