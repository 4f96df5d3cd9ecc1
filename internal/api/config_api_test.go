package api

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func ptr[T any](v T) *T { return &v }

// TestConfigPatchRoundTrip drives every runtime knob through
// PATCH /v1/config and reads each back through GET /v1/config and the
// backend scheduler.
func TestConfigPatchRoundTrip(t *testing.T) {
	c, sc := newTestServer(t)
	ctx := context.Background()

	doc, err := c.SetConfig(ctx, ConfigPatchRequest{
		Policy: ptr("amf-enhanced"),
		Solver: &SolverPatchSection{
			ApproxEpsilon:   ptr(0.02),
			ApproxThreshold: ptr(5000),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Policy != "amf-enhanced" {
		t.Fatalf("patched policy %q, want amf-enhanced", doc.Policy)
	}
	if doc.Solver.ApproxEpsilon != 0.02 || doc.Solver.ApproxThreshold != 5000 {
		t.Fatalf("patched solver section %+v", doc.Solver)
	}

	// GET serves the same document.
	got, err := c.Config(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.RuntimeConfig() != doc.RuntimeConfig() {
		t.Fatalf("GET %+v != PATCH response %+v", got.RuntimeConfig(), doc.RuntimeConfig())
	}
	if len(got.SiteCapacity) != 2 {
		t.Fatalf("GET lost the boot config: %+v", got)
	}

	// The scheduler behind the server observed every knob.
	rc := sc.RuntimeConfig()
	if rc.Policy != "amf-enhanced" || rc.ApproxEpsilon != 0.02 || rc.ApproxThreshold != 5000 {
		t.Fatalf("scheduler runtime config %+v", rc)
	}

	// Partial patch: one field changes, everything else sticks.
	doc, err = c.SetConfig(ctx, ConfigPatchRequest{
		Solver: &SolverPatchSection{ApproxThreshold: ptr(0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Solver.ApproxThreshold != 0 || doc.Solver.ApproxEpsilon != 0.02 {
		t.Fatalf("partial patch clobbered untouched fields: %+v", doc.Solver)
	}
	if doc.Policy != "amf-enhanced" {
		t.Fatalf("partial patch clobbered the policy: %q", doc.Policy)
	}
}

// TestConfigPatchEmptyNoop checks that an empty patch body applies
// nothing and returns the current document.
func TestConfigPatchEmptyNoop(t *testing.T) {
	c, sc := newTestServer(t)
	before := sc.RuntimeConfig()
	doc, err := c.SetConfig(context.Background(), ConfigPatchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if doc.RuntimeConfig() != before {
		t.Fatalf("empty patch changed config: %+v -> %+v", before, doc.RuntimeConfig())
	}
	if sc.RuntimeConfig() != before {
		t.Fatalf("empty patch reached the scheduler: %+v", sc.RuntimeConfig())
	}
}

// TestConfigPatchFieldErrors sends a patch with several invalid fields
// and checks they are all reported together with stable per-field codes,
// and that nothing — not even the valid fields — was applied.
func TestConfigPatchFieldErrors(t *testing.T) {
	c, sc := newTestServer(t)
	before := sc.RuntimeConfig()

	_, fields, err := c.SetConfigDetailed(context.Background(), ConfigPatchRequest{
		Policy: ptr("round-robin"), // unknown
		Solver: &SolverPatchSection{
			ApproxEpsilon:   ptr(-0.5),  // negative
			ApproxThreshold: ptr(10000), // valid — must still not apply
		},
	})
	if !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("error = %v, want invalid_argument", err)
	}
	if fields == nil {
		t.Fatal("no field-level breakdown returned")
	}
	want := map[string]string{
		"policy":                FieldCodeUnknownPolicy,
		"solver.approx_epsilon": FieldCodeOutOfRange,
	}
	got := map[string]string{}
	for _, f := range fields.Fields {
		got[f.Field] = f.Code
	}
	for field, code := range want {
		if got[field] != code {
			t.Errorf("field %q: code %q, want %q (all: %v)", field, got[field], code, got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("reported fields %v, want exactly %v", got, want)
	}
	// Rejection is atomic: the valid threshold did not slip through.
	if sc.RuntimeConfig() != before {
		t.Fatalf("rejected patch mutated config: %+v -> %+v", before, sc.RuntimeConfig())
	}
}

// TestConfigPatchRejectsNonFinite drives the raw HTTP surface with
// non-JSON numbers for float fields.
func TestConfigPatchRejectsNonFinite(t *testing.T) {
	_, srv := newDirectServer(t)
	for _, body := range []string{
		`{"solver": {"approx_epsilon": 1e999}}`,
		`{"solver": {"approx_epsilon": NaN}}`,
	} {
		req := httptest.NewRequest(http.MethodPatch, "/v1/config", strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("body %s: status %d, want 400", body, rec.Code)
		}
	}
}

// TestConfigPatchEngineBacked runs the round trip through the serving
// engine backend: the patch rides an exclusive group commit.
func TestConfigPatchEngineBacked(t *testing.T) {
	c, eng := newEngineTestServer(t)
	ctx := context.Background()
	doc, err := c.SetConfig(ctx, ConfigPatchRequest{
		Solver: &SolverPatchSection{ApproxEpsilon: ptr(0.05), ApproxThreshold: ptr(16)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Solver.ApproxEpsilon != 0.05 || doc.Solver.ApproxThreshold != 16 {
		t.Fatalf("engine-backed patch response %+v", doc.Solver)
	}
	rc, err := eng.RuntimeConfig(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rc.ApproxEpsilon != 0.05 || rc.ApproxThreshold != 16 {
		t.Fatalf("engine runtime config %+v", rc)
	}
}

// TestConfigPatchRejectsUnknownFields checks that a patch naming a field
// the document does not have — a typo, or a knob this build no longer
// carries — is refused with the offending name instead of answering 200
// and applying nothing.
func TestConfigPatchRejectsUnknownFields(t *testing.T) {
	sc, srv := newDirectServer(t)
	before := sc.RuntimeConfig()
	for _, tc := range []struct{ body, field string }{
		{`{"polcy": "psmmf"}`, "polcy"},
		{`{"policy": "psmmf", "phase": {"window": 16}}`, "phase"},
		{`{"solver": {"approx_epsilon": 0.1, "approx_epsilonn": 0.2}}`, "approx_epsilonn"},
	} {
		req := httptest.NewRequest(http.MethodPatch, "/v1/config", strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("body %s: status %d, want 400", tc.body, rec.Code)
		}
		var resp ConfigPatchError
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Code != CodeInvalidArgument || len(resp.Fields) != 1 ||
			resp.Fields[0].Field != tc.field || resp.Fields[0].Code != FieldCodeUnknownField {
			t.Fatalf("body %s: response %s, want field %q with code %q",
				tc.body, rec.Body.String(), tc.field, FieldCodeUnknownField)
		}
	}
	if sc.RuntimeConfig() != before {
		t.Fatalf("rejected patch mutated config: %+v -> %+v", before, sc.RuntimeConfig())
	}
}

// TestConfigDocumentWireShape pins the JSON nesting of the document so
// the quickstart in the README stays truthful.
func TestConfigDocumentWireShape(t *testing.T) {
	_, srv := newDirectServer(t)
	req := httptest.NewRequest(http.MethodGet, "/v1/config", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"site_capacity", "policy", "solver"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("document lacks %q: %s", key, rec.Body.String())
		}
	}
	if len(doc) != 3 {
		t.Errorf("document has %d fields, want 3: %s", len(doc), rec.Body.String())
	}
}
