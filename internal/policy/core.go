package policy

import (
	"context"

	"repro/internal/core"
)

// The paper's four disciplines. Each is a name and a per-component kernel
// of the core solver's one component pipeline; the pipeline's
// decomposition, worker pool and approximate fast path do the rest.
var (
	// AMF is aggregate max-min fairness, the paper's proposal.
	AMF Policy = kernelPolicy{"amf", core.KernelAMF}
	// AMFJCT is AMF plus the completion-time split optimization.
	AMFJCT Policy = kernelPolicy{"amf+jct", core.KernelJCT}
	// EnhancedAMF preserves sharing incentive: equal-share floors from the
	// global weight sum, max-min filling above them.
	EnhancedAMF Policy = kernelPolicy{"amf-enhanced", core.KernelEnhanced}
	// PSMMF is the per-site max-min baseline the paper compares against.
	PSMMF Policy = kernelPolicy{"psmmf", core.KernelPSMMF}
)

type kernelPolicy struct {
	name   string
	kernel core.Kernel
}

func (p kernelPolicy) Name() string        { return p.name }
func (p kernelPolicy) Kernel() core.Kernel { return p.kernel }
func (p kernelPolicy) Capabilities() Capabilities {
	return Capabilities{GlobalWeightFloors: p.kernel == core.KernelEnhanced}
}
func (p kernelPolicy) Allocate(ctx context.Context, v *View) (*core.Allocation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return solverOf(v).Solve(v.Inst, p.kernel)
}
