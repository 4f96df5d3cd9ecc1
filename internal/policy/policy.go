// Package policy is the pluggable fairness layer: every allocation
// discipline the system can serve — the paper's AMF family, the per-site
// max-min baseline, multi-resource DRF and proportional fairness — sits
// behind one Policy interface, so the scheduler, serving engine, API,
// cluster router and WAL are all policy-agnostic. A policy declares its
// capabilities (incremental re-solving, global weight floors, approximate
// fast path) and the layers above adapt: the scheduler keeps its
// dirty-set/incremental machinery only for policies that support it, the
// cluster router broadcasts the weight sum only for policies that need
// it, and result caches mix the policy fingerprint into their keys so a
// runtime policy switch can never serve a stale allocation.
package policy

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
)

// Capabilities declares what machinery a policy can ride. The layers
// above consult these instead of switching on policy identity.
type Capabilities struct {
	// Incremental: the policy's shares depend only on weights, demands and
	// capacities — all captured by the component fingerprint — so the
	// scheduler may run it through core.IncrementalSolver, re-solving only
	// dirty components.
	Incremental bool
	// GlobalWeightFloors: the policy's allocation depends on the global
	// share-weight sum (Enhanced AMF's equal-share floors). The cluster
	// router must broadcast W − W_shard to every shard, and a weight-sum
	// change invalidates every cached component.
	GlobalWeightFloors bool
	// MultiResource: the policy generalizes to vector-valued capacities
	// and task shapes (DRF). The single-resource serving view is solved as
	// the K=1 special case.
	MultiResource bool
	// Approx: the policy honors the solver's approximate water-filling
	// knobs (ApproxEpsilon/ApproxThreshold).
	Approx bool
}

// View is the read-only problem a policy allocates over: the scheduler's
// instance view plus the shared core solver. Policies must not mutate
// either.
type View struct {
	Inst   *core.Instance
	Solver *core.Solver
}

// Stats is the telemetry one Allocate call reports. Policies that manage
// their own decomposition and result cache (DRF) set Native and fill the
// counters; wrappers around the core solver leave Native false and the
// scheduler reads the solver's own SolveStats instead.
type Stats struct {
	Native     bool
	Components int
	Largest    int
	// Reused counts components served from the policy's result cache this
	// call; Resolved counts components actually solved.
	Reused   int
	Resolved int
	// CacheHits/CacheMisses are cumulative over the policy instance.
	CacheHits   int64
	CacheMisses int64
}

// Policy is one fairness discipline. Implementations must be safe for
// concurrent use; Allocate must treat the view as read-only and return
// freshly allocated (or immutably cached) share rows.
type Policy interface {
	// Name is the stable identifier used by flags, the HTTP API, snapshot
	// headers and cluster agreement checks.
	Name() string
	Capabilities() Capabilities
	// Allocate computes the policy's allocation for the view. The returned
	// allocation's Share rows are aligned with view.Inst.JobName.
	Allocate(ctx context.Context, v *View) (*core.Allocation, Stats, error)
	// Fingerprint is a stable hash of the policy's identity and parameters,
	// mixed into result-cache keys: two policies with different fingerprints
	// can never share a cached allocation.
	Fingerprint() uint64
}

// solverOf returns the view's solver, defaulting like the sim layer does.
func solverOf(v *View) *core.Solver {
	if v.Solver != nil {
		return v.Solver
	}
	return core.NewSolver()
}

// ForName constructs the named policy. Stateless disciplines return
// shared singletons; stateful ones (DRF's result cache) return a fresh
// instance so two controllers never share cache state.
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
	case "drf":
		return NewDRF(), nil
	case "propfair":
		return NewPropFair(), nil
	}
	return nil, fmt.Errorf("policy: unknown policy %q (known: %v)", name, Names())
}

// Names lists every selectable policy name in presentation order.
func Names() []string {
	return []string{"amf", "amf+jct", "amf-enhanced", "psmmf", "drf", "propfair"}
}

// fnv64 is FNV-1a over raw bytes — the same construction the incremental
// solver's component fingerprints use, kept dependency-free here.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	h ^= 0xff // terminator so "ab","c" != "a","bc"
	h *= fnvPrime
	return h
}

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func fnvFloat(h uint64, f float64) uint64 {
	return fnvUint64(h, math.Float64bits(f))
}

func fnvFloats(h uint64, fs []float64) uint64 {
	h = fnvUint64(h, uint64(len(fs)))
	for _, f := range fs {
		h = fnvFloat(h, f)
	}
	return h
}
