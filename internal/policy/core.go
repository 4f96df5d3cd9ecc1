package policy

import (
	"context"

	"repro/internal/core"
)

// The paper's single-resource disciplines, exposed as Policy
// implementations. They are thin stateless wrappers over the shared core
// solver: the solver's own component decomposition, worker pool and
// approximate fast path do the heavy lifting, and the scheduler reads
// core.SolveStats directly.
var (
	// AMF is aggregate max-min fairness, the paper's proposal.
	AMF Policy = amfPolicy{}
	// AMFJCT is AMF plus the completion-time split optimization.
	AMFJCT Policy = jctPolicy{}
	// EnhancedAMF preserves sharing incentive: equal-share floors from the
	// global weight sum, max-min filling above them.
	EnhancedAMF Policy = enhancedPolicy{}
	// PSMMF is the per-site max-min baseline the paper compares against.
	PSMMF Policy = psmmfPolicy{}
)

type amfPolicy struct{}

func (amfPolicy) Name() string { return "amf" }
func (amfPolicy) Capabilities() Capabilities {
	return Capabilities{Incremental: true, Approx: true}
}
func (amfPolicy) Allocate(ctx context.Context, v *View) (*core.Allocation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return solverOf(v).AMF(v.Inst)
}

type jctPolicy struct{}

func (jctPolicy) Name() string { return "amf+jct" }
func (jctPolicy) Capabilities() Capabilities {
	// The JCT split depends on outstanding work, which the component
	// fingerprint does not capture: from-scratch solves only.
	return Capabilities{}
}
func (jctPolicy) Allocate(ctx context.Context, v *View) (*core.Allocation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return solverOf(v).AMFWithJCT(v.Inst)
}

type enhancedPolicy struct{}

func (enhancedPolicy) Name() string { return "amf-enhanced" }
func (enhancedPolicy) Capabilities() Capabilities {
	return Capabilities{Incremental: true, GlobalWeightFloors: true, Approx: true}
}
func (enhancedPolicy) Allocate(ctx context.Context, v *View) (*core.Allocation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return solverOf(v).EnhancedAMF(v.Inst)
}

type psmmfPolicy struct{}

func (psmmfPolicy) Name() string               { return "psmmf" }
func (psmmfPolicy) Capabilities() Capabilities { return Capabilities{} }
func (psmmfPolicy) Allocate(ctx context.Context, v *View) (*core.Allocation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := v.Inst.Validate(); err != nil {
		return nil, err
	}
	return core.PerSiteMMF(v.Inst), nil
}
