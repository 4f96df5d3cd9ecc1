package core

import "testing"

// multiComponentInstance builds k independent 2-job/2-site blocks, so the
// demand graph has exactly k connected components.
func multiComponentInstance(k int) *Instance {
	in := &Instance{
		SiteCapacity: make([]float64, 2*k),
		Demand:       make([][]float64, 2*k),
		JobName:      make([]string, 2*k),
	}
	for b := 0; b < k; b++ {
		in.SiteCapacity[2*b] = 4
		in.SiteCapacity[2*b+1] = 4
		for i := 0; i < 2; i++ {
			j := 2*b + i
			row := make([]float64, 2*k)
			row[2*b] = 3
			row[2*b+1] = 1
			in.Demand[j] = row
			in.JobName[j] = string(rune('a'+b)) + string(rune('0'+i))
		}
	}
	return in
}

// TestSolverStageEventsDecomposed: the component pipeline reports
// validate, partition and solve stages in order, plus one detail event per
// component, and the hook sees everything from the caller's goroutine.
func TestSolverStageEventsDecomposed(t *testing.T) {
	checkSolverStages(t, &Solver{}, 4)
}

// TestSolverStageEventsOneComponent: a one-component instance is a
// one-component run of the same pipeline and must report the same stages
// under the same names in the same order, with the whole solve as its
// single component detail.
func TestSolverStageEventsOneComponent(t *testing.T) {
	checkSolverStages(t, &Solver{}, 1)
}

// checkSolverStages solves a k-component instance through Solver.AMF and
// asserts the stage sequence and the per-component details.
func checkSolverStages(t *testing.T, sv *Solver, k int) {
	t.Helper()
	var events []StageEvent
	sv.OnStage = func(ev StageEvent) { events = append(events, ev) }
	if _, err := sv.AMF(multiComponentInstance(k)); err != nil {
		t.Fatal(err)
	}
	var order []string
	details := 0
	for _, ev := range events {
		if ev.Detail {
			if ev.Name != StageSolveComponent {
				t.Fatalf("detail event %q", ev.Name)
			}
			details++
			continue
		}
		if ev.Duration < 0 {
			t.Fatalf("stage %s has negative duration %v", ev.Name, ev.Duration)
		}
		order = append(order, ev.Name)
	}
	if details != k {
		t.Fatalf("got %d solve.component details, want %d", details, k)
	}
	want := []string{StageValidate, StagePartition, StageSolve}
	if len(order) != len(want) {
		t.Fatalf("stage order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("stage order = %v, want %v", order, want)
		}
	}
}

// TestSolverStageEventsIncremental: the incremental path reports the full
// validate → partition → solve → merge sequence, with one detail event
// per component actually re-solved.
func TestSolverStageEventsIncremental(t *testing.T) {
	const k = 3
	var events []StageEvent
	sv := NewSolver()
	sv.OnStage = func(ev StageEvent) { events = append(events, ev) }
	x := &IncrementalSolver{Solver: sv}

	in := multiComponentInstance(k)
	if _, err := x.Solve(in, nil); err != nil {
		t.Fatal(err)
	}
	checkIncrementalStages(t, events, x.LastStats().Solved)

	// A dirty job in one component re-solves just that component: still
	// the full stage sequence, but only one detail event.
	events = nil
	in.Demand[0][0] = 2
	if _, err := x.Solve(in, map[string]bool{in.JobName[0]: true}); err != nil {
		t.Fatal(err)
	}
	if solved := x.LastStats().Solved; solved != 1 {
		t.Fatalf("re-solved %d components, want 1", solved)
	}
	checkIncrementalStages(t, events, 1)
}

func checkIncrementalStages(t *testing.T, events []StageEvent, wantDetails int) {
	t.Helper()
	var order []string
	details := 0
	for _, ev := range events {
		if ev.Detail {
			details++
			continue
		}
		order = append(order, ev.Name)
	}
	want := []string{StageValidate, StagePartition, StageSolve, StageMerge}
	if len(order) != len(want) {
		t.Fatalf("stage order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("stage order = %v, want %v", order, want)
		}
	}
	if details != wantDetails {
		t.Fatalf("got %d detail events, want %d", details, wantDetails)
	}
}

// TestSolverNilOnStage: an uninstrumented solver must not emit (or crash).
func TestSolverNilOnStage(t *testing.T) {
	sv := &Solver{}
	if _, err := sv.AMF(multiComponentInstance(2)); err != nil {
		t.Fatal(err)
	}
}
