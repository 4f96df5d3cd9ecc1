package sim

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/policy"
)

// Policy selects the allocation discipline the simulated scheduler applies
// whenever the active job set changes.
type Policy int

const (
	// PolicyAMF applies aggregate max-min fairness (the paper's proposal).
	PolicyAMF Policy = iota
	// PolicyAMFJCT applies AMF plus the completion-time add-on.
	PolicyAMFJCT
	// PolicyEnhancedAMF applies the sharing-incentive-preserving variant.
	PolicyEnhancedAMF
	// PolicyPSMMF applies the per-site max-min baseline.
	PolicyPSMMF
)

// Policies lists all policies in presentation order.
func Policies() []Policy {
	return []Policy{PolicyPSMMF, PolicyAMF, PolicyAMFJCT, PolicyEnhancedAMF}
}

func (p Policy) String() string {
	switch p {
	case PolicyAMF:
		return "amf"
	case PolicyAMFJCT:
		return "amf+jct"
	case PolicyEnhancedAMF:
		return "amf-enhanced"
	case PolicyPSMMF:
		return "psmmf"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy parses the String form back into a Policy.
func ParsePolicy(s string) (Policy, error) {
	for _, p := range Policies() {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown policy %q", s)
}

// Impl returns the shared policy-layer implementation this enum value
// names. The simulator and the serving stack dispatch through the same
// implementations, so the two can never diverge; the enum survives only
// as the paper experiments' compact iteration/presentation form.
func (p Policy) Impl() policy.Policy {
	switch p {
	case PolicyAMF:
		return policy.AMF
	case PolicyAMFJCT:
		return policy.AMFJCT
	case PolicyEnhancedAMF:
		return policy.EnhancedAMF
	case PolicyPSMMF:
		return policy.PSMMF
	default:
		return nil
	}
}

// Allocate computes the policy's allocation for the instance by
// delegating to the shared implementation (see Impl).
func (p Policy) Allocate(sv *core.Solver, in *core.Instance) (*core.Allocation, error) {
	impl := p.Impl()
	if impl == nil {
		return nil, fmt.Errorf("sim: unknown policy %d", int(p))
	}
	return impl.Allocate(context.Background(), &policy.View{Inst: in, Solver: sv})
}
