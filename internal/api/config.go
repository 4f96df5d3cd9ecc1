package api

// The runtime-tuning surface: GET/PATCH /v1/config.
//
// Every runtime knob — the fairness policy and the approximate-solver
// routing — is readable and patchable through one document:
//
//	{
//	  "site_capacity": [...],            // immutable, echoed on GET
//	  "policy": "amf",
//	  "solver": {"approx_epsilon": 0.01, "approx_threshold": 4096}
//	}
//
// PATCH takes the same nesting with every field optional; absent fields
// keep their current values. Validation is field-level: a bad patch is
// rejected as a whole (nothing is applied) with 400 invalid_argument and
// a "fields" list naming every offending field by its JSON path together
// with a stable per-field code — clients fix all of them in one round
// trip. A field the document does not have is rejected the same way
// (code unknown_field) rather than silently ignored. A valid patch is
// applied atomically; on the serving engine it rides an exclusive group
// commit and is WAL-logged (OpSetConfig), so it survives crash recovery
// and replicates to followers. A read replica serves the document and
// rejects every patch as read-only.

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/policy"
	"repro/internal/scheduler"
)

// SolverConfigSection is the solver block of the /v1/config document.
type SolverConfigSection struct {
	// ApproxEpsilon is the approximate water-filling deviation budget as a
	// fraction of the instance scale; 0 disables the approximate path.
	ApproxEpsilon float64 `json:"approx_epsilon"`
	// ApproxThreshold is the component size above which the approximation
	// engages.
	ApproxThreshold int `json:"approx_threshold"`
}

// SolverPatchSection is the solver block of a PATCH /v1/config body; nil
// fields keep their current values.
type SolverPatchSection struct {
	ApproxEpsilon   *float64 `json:"approx_epsilon,omitempty"`
	ApproxThreshold *int     `json:"approx_threshold,omitempty"`
}

// ConfigPatchRequest is the PATCH /v1/config wire form: the config
// document's nesting with every field optional.
type ConfigPatchRequest struct {
	Policy *string             `json:"policy,omitempty"`
	Solver *SolverPatchSection `json:"solver,omitempty"`
}

// Stable per-field validation codes, carried in FieldError.Code. The
// response's top-level code stays "invalid_argument"; these pinpoint
// which constraint each offending field violated.
const (
	// FieldCodeUnknownPolicy: "policy" does not name a registered fairness
	// policy.
	FieldCodeUnknownPolicy = "unknown_policy"
	// FieldCodeOutOfRange: the value violates its documented range (e.g. a
	// negative threshold).
	FieldCodeOutOfRange = "out_of_range"
	// FieldCodeNotFinite: the value must be a finite number.
	FieldCodeNotFinite = "not_finite"
	// FieldCodeUnknownField: the patch names a field the document does not
	// have (a typo, or a knob this build no longer carries).
	FieldCodeUnknownField = "unknown_field"
)

// FieldError names one offending field of a rejected config patch by its
// JSON path (e.g. "solver.approx_epsilon"), with a human-readable reason
// and a stable per-field code.
type FieldError struct {
	Field string `json:"field"`
	Error string `json:"error"`
	Code  string `json:"code"`
}

// ConfigPatchError is the PATCH /v1/config rejection body: the standard
// error envelope plus the per-field breakdown. Nothing was applied. Job
// registrations with an unknown field are rejected with the same body.
type ConfigPatchError struct {
	errorResponse
	Fields []FieldError `json:"fields,omitempty"`
}

// validate runs field-level validation, returning one FieldError per
// offending field (empty = syntactically valid; the backend still
// validates the folded result against its current state on apply).
func (r ConfigPatchRequest) validate() []FieldError {
	var fe []FieldError
	bad := func(field, code, msg string) {
		fe = append(fe, FieldError{Field: field, Error: msg, Code: code})
	}
	if r.Policy != nil {
		if _, err := policy.ForName(*r.Policy); err != nil {
			bad("policy", FieldCodeUnknownPolicy, err.Error())
		}
	}
	if s := r.Solver; s != nil {
		if s.ApproxEpsilon != nil {
			switch eps := *s.ApproxEpsilon; {
			case math.IsNaN(eps) || math.IsInf(eps, 0):
				bad("solver.approx_epsilon", FieldCodeNotFinite, "epsilon must be a finite non-negative fraction")
			case eps < 0:
				bad("solver.approx_epsilon", FieldCodeOutOfRange, "epsilon must be non-negative")
			}
		}
		if s.ApproxThreshold != nil && *s.ApproxThreshold < 0 {
			bad("solver.approx_threshold", FieldCodeOutOfRange, "threshold must be non-negative")
		}
	}
	return fe
}

// Patch flattens the wire form into the scheduler-level patch.
func (r ConfigPatchRequest) Patch() scheduler.ConfigPatch {
	p := scheduler.ConfigPatch{Policy: r.Policy}
	if s := r.Solver; s != nil {
		p.ApproxEpsilon = s.ApproxEpsilon
		p.ApproxThreshold = s.ApproxThreshold
	}
	return p
}

// NewConfigPatchRequest nests a scheduler-level patch back into the wire
// form — the inverse of Patch, for programmatic callers like the cluster
// router's HTTP shard adapter.
func NewConfigPatchRequest(p scheduler.ConfigPatch) ConfigPatchRequest {
	r := ConfigPatchRequest{Policy: p.Policy}
	if p.ApproxEpsilon != nil || p.ApproxThreshold != nil {
		r.Solver = &SolverPatchSection{
			ApproxEpsilon:   p.ApproxEpsilon,
			ApproxThreshold: p.ApproxThreshold,
		}
	}
	return r
}

// RuntimeConfig flattens the document's tunable fields into the
// scheduler-level form. The cluster router's HTTP shard adapter uses it.
func (c ConfigResponse) RuntimeConfig() scheduler.RuntimeConfig {
	return scheduler.RuntimeConfig{
		Policy:          c.Policy,
		ApproxEpsilon:   c.Solver.ApproxEpsilon,
		ApproxThreshold: c.Solver.ApproxThreshold,
	}
}

// handleConfig serves the full /v1/config document: the backend's
// runtime config plus the server's site capacities.
func (s *Server) handleConfig(w http.ResponseWriter, r *http.Request) {
	rc, err := s.sc.RuntimeConfig(r.Context())
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, ConfigResponse{
		SiteCapacity: s.capacity,
		Policy:       rc.Policy,
		Solver: SolverConfigSection{
			ApproxEpsilon:   rc.ApproxEpsilon,
			ApproxThreshold: rc.ApproxThreshold,
		},
	})
}

// handlePatchConfig applies one partial runtime-tuning update. All
// field-level validation failures are collected and reported together;
// a valid patch is applied atomically and answered with the updated
// document. An empty patch is a no-op that returns the current document.
func (s *Server) handlePatchConfig(w http.ResponseWriter, r *http.Request) {
	var req ConfigPatchRequest
	if !decodeStrict(w, r, &req, "config patch") {
		return
	}
	if fields := req.validate(); len(fields) > 0 {
		writeFieldErrors(w, "config patch", fields)
		return
	}
	if patch := req.Patch(); !patch.Empty() {
		if err := s.sc.ApplyConfig(r.Context(), patch); err != nil {
			WriteError(w, err)
			return
		}
	}
	s.handleConfig(w, r)
}

func writeFieldErrors(w http.ResponseWriter, body string, fields []FieldError) {
	WriteJSON(w, http.StatusBadRequest, ConfigPatchError{
		errorResponse: errorResponse{
			Error: body + " failed validation", Code: CodeInvalidArgument},
		Fields: fields,
	})
}

// decodeStrict decodes a request body that must not carry a field v's
// type lacks — a typo, or a field this build no longer serves, which
// would otherwise be dropped silently. An unknown field is answered 400
// with a FieldError of code unknown_field, any other decode failure as a
// malformed body. body names the request kind in the reply. It reports
// whether v was decoded.
func decodeStrict(w http.ResponseWriter, r *http.Request, v any, body string) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	// encoding/json reports an unknown field only as text; anything else
	// is a plain malformed body.
	if q, ok := strings.CutPrefix(err.Error(), "json: unknown field "); ok {
		if name, uerr := strconv.Unquote(q); uerr == nil {
			writeFieldErrors(w, body, []FieldError{{Field: name, Error: "no such field", Code: FieldCodeUnknownField}})
			return false
		}
	}
	WriteError(w, err)
	return false
}
