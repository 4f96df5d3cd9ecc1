package scheduler

// Runtime-tuning config as one coherent document. Every knob that used to
// have a bespoke setter (policy, approximate-solver routing) is readable
// and patchable through
// RuntimeConfig/ConfigPatch — the scheduler-level substrate of the HTTP
// API's GET/PATCH /v1/config. A patch is validated in full before
// anything is applied, so a rejected patch leaves the controller
// untouched.

import (
	"fmt"

	"repro/internal/policy"
)

// RuntimeConfig is the complete runtime-tuning state: the GET /v1/config
// document minus the immutable site capacities (which the API layer adds
// from its own boot config).
type RuntimeConfig struct {
	Policy          string  `json:"policy"`
	ApproxEpsilon   float64 `json:"approx_epsilon"`
	ApproxThreshold int     `json:"approx_threshold"`
}

// RuntimeConfig reports the current runtime-tuning state.
func (sc *Scheduler) RuntimeConfig() RuntimeConfig {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return RuntimeConfig{
		Policy:          sc.cfg.Policy.Name(),
		ApproxEpsilon:   sc.cfg.Solver.ApproxEpsilon,
		ApproxThreshold: sc.cfg.Solver.ApproxThreshold,
	}
}

// ConfigPatch is a partial runtime-tuning update: nil fields keep their
// current values. It is also the WAL payload of OpSetConfig, so replay
// re-applies exactly what was patched. Records written by older builds may
// carry fields this type no longer has; the WAL decoder ignores them.
type ConfigPatch struct {
	Policy          *string  `json:"policy,omitempty"`
	ApproxEpsilon   *float64 `json:"approx_epsilon,omitempty"`
	ApproxThreshold *int     `json:"approx_threshold,omitempty"`
}

// Empty reports whether the patch changes nothing.
func (p ConfigPatch) Empty() bool {
	return p.Policy == nil && p.ApproxEpsilon == nil && p.ApproxThreshold == nil
}

// resolve folds the patch over the current state and validates the
// result, returning the policy to install (nil = unchanged).
func (sc *Scheduler) resolvePatchLocked(p ConfigPatch) (pol policy.Policy, eps float64, threshold int, err error) {
	eps, threshold = sc.cfg.Solver.ApproxEpsilon, sc.cfg.Solver.ApproxThreshold
	if p.ApproxEpsilon != nil {
		eps = *p.ApproxEpsilon
	}
	if p.ApproxThreshold != nil {
		threshold = *p.ApproxThreshold
	}
	if err = validateApproxConfig(eps, threshold); err != nil {
		return nil, 0, 0, err
	}
	if p.Policy != nil {
		pol, err = policy.ForName(*p.Policy)
		if err != nil {
			return nil, 0, 0, err
		}
	}
	return pol, eps, threshold, nil
}

// ApplyConfigPatch validates the whole patch against the current state
// and applies it atomically under one lock acquisition. Unchanged fields
// are no-ops (a policy patch naming the active policy does not drop
// incremental state).
func (sc *Scheduler) ApplyConfigPatch(p ConfigPatch) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	pol, eps, threshold, err := sc.resolvePatchLocked(p)
	if err != nil {
		return err
	}
	if pol != nil {
		sc.setPolicyLocked(pol)
	}
	sc.setApproxLocked(eps, threshold)
	return nil
}

// ValidateConfigPatch checks the patch against the current state without
// applying anything — the serving engine's fast-fail before enqueueing
// the exclusive config commit.
func (sc *Scheduler) ValidateConfigPatch(p ConfigPatch) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	_, _, _, err := sc.resolvePatchLocked(p)
	return err
}

// String renders the patch compactly for logs.
func (p ConfigPatch) String() string {
	out := "{"
	add := func(f string, v any) {
		if len(out) > 1 {
			out += " "
		}
		out += fmt.Sprintf("%s=%v", f, v)
	}
	if p.Policy != nil {
		add("policy", *p.Policy)
	}
	if p.ApproxEpsilon != nil {
		add("approx_epsilon", *p.ApproxEpsilon)
	}
	if p.ApproxThreshold != nil {
		add("approx_threshold", *p.ApproxThreshold)
	}
	return out + "}"
}
