package scheduler

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Snapshot is the serializable state of a controller: the live job set.
// Configuration (capacities) is not part of the
// snapshot — it belongs to the deployment, not the state. The active
// policy's name IS recorded, as a header: an allocation state only means
// what its discipline says it means, so Restore (and therefore WAL
// recovery and replica replay) refuses a snapshot taken under a
// different policy instead of silently reinterpreting it.
type Snapshot struct {
	// Policy is the wire name of the policy active when the snapshot was
	// taken ("" in pre-policy-layer snapshots, accepted for
	// compatibility).
	Policy string `json:"policy,omitempty"`
	Jobs   []Job  `json:"jobs"`
	// ExternalWeight is the cluster router's weight-sum broadcast value in
	// effect when the snapshot was taken (zero standalone); restoring it
	// keeps replica replay and compacted-WAL recovery deterministic.
	ExternalWeight float64 `json:"external_weight,omitempty"`
	// Solver carries the runtime-tuning knobs in effect when the snapshot
	// was taken. Runtime tuning is WAL-logged (OpSetConfig), so compaction
	// — which folds the WAL into this snapshot — must preserve it or a
	// recovered controller would silently revert to boot defaults. Nil
	// (pre-config-surface snapshots) leaves the controller's current
	// values untouched.
	Solver *SolverSnapshot `json:"solver,omitempty"`
}

// SolverSnapshot is the persisted approximate-path tuning.
type SolverSnapshot struct {
	ApproxEpsilon   float64 `json:"approx_epsilon"`
	ApproxThreshold int     `json:"approx_threshold"`
}

// Snapshot captures the current job set for persistence.
func (sc *Scheduler) Snapshot() Snapshot {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	snap := Snapshot{
		Policy:         sc.cfg.Policy.Name(),
		Jobs:           make([]Job, 0, len(sc.order)),
		ExternalWeight: sc.externalWeight,
		Solver: &SolverSnapshot{
			ApproxEpsilon:   sc.cfg.Solver.ApproxEpsilon,
			ApproxThreshold: sc.cfg.Solver.ApproxThreshold,
		},
	}
	for _, id := range sc.order {
		if id == "" { // removal tombstone
			continue
		}
		j := sc.jobs[id]
		snap.Jobs = append(snap.Jobs, Job{
			ID:        j.ID,
			Weight:    j.Weight,
			Demand:    append([]float64(nil), j.Demand...),
			Remaining: append([]float64(nil), j.Remaining...),
		})
	}
	return snap
}

// Restore replaces the controller's job set with the snapshot's. The
// snapshot must have been taken from a controller with the same site
// count. Counters (Stats) are not restored.
func (sc *Scheduler) Restore(snap Snapshot) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if snap.Policy != "" && snap.Policy != sc.cfg.Policy.Name() {
		return fmt.Errorf("scheduler: snapshot was taken under policy %q, controller runs %q",
			snap.Policy, sc.cfg.Policy.Name())
	}
	if w := snap.ExternalWeight; w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("scheduler: snapshot has invalid external weight %g", w)
	}
	if snap.Solver != nil {
		if err := validateApproxConfig(snap.Solver.ApproxEpsilon, snap.Solver.ApproxThreshold); err != nil {
			return fmt.Errorf("scheduler: snapshot solver config: %w", err)
		}
	}
	for _, j := range snap.Jobs {
		if len(j.Demand) != sc.NumSites() || len(j.Remaining) != sc.NumSites() {
			return fmt.Errorf("scheduler: snapshot job %q has %d sites, controller has %d",
				j.ID, len(j.Demand), sc.NumSites())
		}
		if j.ID == "" {
			return fmt.Errorf("scheduler: snapshot contains a job without an ID")
		}
	}
	seen := map[string]bool{}
	for _, j := range snap.Jobs {
		if seen[j.ID] {
			return fmt.Errorf("scheduler: snapshot contains duplicate job %q", j.ID)
		}
		seen[j.ID] = true
	}
	// The solver's carried set leaves with the old jobs: the next solve is a
	// full one over the restored set.
	sc.resetSolverLocked()
	sc.view, sc.stale = nil, sc.stale[:0]
	sc.jobs = make(map[string]*Job, len(snap.Jobs))
	sc.order = sc.order[:0]
	sc.orderIdx = make(map[string]int, len(snap.Jobs))
	sc.holes = 0
	sc.shares = map[string][]float64{}
	clear(sc.dirty)
	sc.externalWeight = snap.ExternalWeight
	for _, j := range snap.Jobs {
		w := j.Weight
		if w <= 0 {
			w = 1
		}
		sc.jobs[j.ID] = &Job{
			ID:        j.ID,
			Weight:    w,
			Demand:    append([]float64(nil), j.Demand...),
			Remaining: append([]float64(nil), j.Remaining...),
		}
		sc.orderIdx[j.ID] = len(sc.order)
		sc.order = append(sc.order, j.ID)
	}
	if snap.Solver != nil {
		sc.setApproxLocked(snap.Solver.ApproxEpsilon, snap.Solver.ApproxThreshold)
	}
	sc.needSolve = true
	return nil
}

// WriteSnapshot serializes the controller state as JSON.
func (sc *Scheduler) WriteSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sc.Snapshot())
}

// ReadSnapshot restores controller state from JSON.
func (sc *Scheduler) ReadSnapshot(r io.Reader) error {
	var snap Snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("scheduler: decoding snapshot: %w", err)
	}
	return sc.Restore(snap)
}
