package core

import "time"

// StageEvent is one timed stage of a solve, delivered through
// Solver.OnStage — the instrumentation feed the serving engine turns into
// per-stage latency histograms and commit-trace spans.
//
// Non-detail events partition the solve sequentially (validate, partition,
// solve, merge — emitted in execution order from the goroutine driving the
// solve), so their durations sum to the solve wall time up to
// uninstrumented slack. Every entry point emits the subsequence it
// executes, under the same names: the incremental solver all four;
// Solver.Solve validate, partition and solve — its merge (a scatter of
// disjoint share rows) is folded into the solve stage.
//
// Detail events report work that ran concurrently inside a stage (one per
// solved component, on the worker pool) and overlap the enclosing "solve"
// event; consumers must not add them to the sequential timeline.
type StageEvent struct {
	// Name is the stage: "validate", "partition", "solve", "merge", or
	// "solve.component" for detail events.
	Name string
	// Duration is the stage's wall time.
	Duration time.Duration
	// Detail marks overlapping informational events (per-component solves).
	Detail bool
}

// Stage names emitted by the solvers.
const (
	StageValidate       = "validate"
	StagePartition      = "partition"
	StageSolve          = "solve"
	StageMerge          = "merge"
	StageSolveComponent = "solve.component"
	StageSolveApprox    = "solve.approx"
)

// stage delivers one event to the OnStage hook, if installed.
func (sv *Solver) stage(name string, d time.Duration, detail bool) {
	if sv.OnStage != nil {
		sv.OnStage(StageEvent{Name: name, Duration: d, Detail: detail})
	}
}
