// Package policy is the pluggable fairness layer: the paper's four
// allocation disciplines — AMF, AMF with the completion-time add-on,
// Enhanced AMF and the per-site max-min baseline — sit behind one Policy
// interface, so the scheduler, serving engine, API, cluster router and WAL
// are all policy-agnostic. A policy is a name and a core.Kernel: every
// discipline decomposes exactly by connected component, so the scheduler's
// incremental solver and a from-scratch Allocate run the same
// per-component kernel. The one capability a layer above adapts to is
// GlobalWeightFloors: the cluster router broadcasts the weight sum only
// for policies that need it.
package policy

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// Capabilities declares what the layers above must do for a policy. They
// consult these instead of switching on policy identity.
type Capabilities struct {
	// GlobalWeightFloors: the policy's allocation depends on the global
	// share-weight sum (Enhanced AMF's equal-share floors). The cluster
	// router must broadcast W − W_shard to every shard, and a weight-sum
	// change invalidates every cached component.
	GlobalWeightFloors bool
}

// View is the read-only problem a policy allocates over: the scheduler's
// instance view plus the shared core solver. Policies must not mutate
// either.
type View struct {
	Inst   *core.Instance
	Solver *core.Solver
}

// Policy is one fairness discipline. Implementations must be safe for
// concurrent use; Allocate must treat the view as read-only and return
// freshly allocated share rows.
type Policy interface {
	// Name is the stable identifier used by flags, the HTTP API, snapshot
	// headers and cluster agreement checks.
	Name() string
	// Kernel is the per-component discipline the core solver runs.
	Kernel() core.Kernel
	Capabilities() Capabilities
	// Allocate computes the policy's allocation for the view. The returned
	// allocation's Share rows are aligned with view.Inst.JobName.
	Allocate(ctx context.Context, v *View) (*core.Allocation, error)
}

// solverOf returns the view's solver, defaulting like the sim layer does.
func solverOf(v *View) *core.Solver {
	if v.Solver != nil {
		return v.Solver
	}
	return core.NewSolver()
}

// ForName returns the named policy. Every discipline is stateless, so the
// result is a shared singleton.
func ForName(name string) (Policy, error) {
	switch name {
	case "amf":
		return AMF, nil
	case "amf+jct":
		return AMFJCT, nil
	case "amf-enhanced":
		return EnhancedAMF, nil
	case "psmmf":
		return PSMMF, nil
	}
	return nil, fmt.Errorf("policy: unknown policy %q (known: %v)", name, Names())
}

// Names lists every selectable policy name in presentation order.
func Names() []string {
	return []string{"amf", "amf+jct", "amf-enhanced", "psmmf"}
}
