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
		Phase: &PhasePatchSection{
			HotThreshold:  ptr(0.4),
			MaxBatches:    ptr(16),
			MaxIntervalMS: ptr(25),
			Window:        ptr(64),
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
	if doc.Phase.HotThreshold != 0.4 || doc.Phase.MaxBatches != 16 ||
		doc.Phase.MaxIntervalMS != 25 || doc.Phase.Window != 64 {
		t.Fatalf("patched phase section %+v", doc.Phase)
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
	if rc.Phase.HotThreshold != 0.4 || rc.Phase.MaxBatches != 16 ||
		rc.Phase.MaxIntervalMS != 25 || rc.Phase.Window != 64 {
		t.Fatalf("scheduler phase config %+v", rc.Phase)
	}

	// Partial patch: one field changes, everything else sticks.
	doc, err = c.SetConfig(ctx, ConfigPatchRequest{
		Phase: &PhasePatchSection{HotThreshold: ptr(0.0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Phase.HotThreshold != 0 || doc.Phase.MaxBatches != 16 {
		t.Fatalf("partial patch clobbered untouched fields: %+v", doc.Phase)
	}
	if doc.Policy != "amf-enhanced" || doc.Solver.ApproxEpsilon != 0.02 {
		t.Fatalf("partial patch clobbered other sections: policy %q solver %+v", doc.Policy, doc.Solver)
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
		Phase: &PhasePatchSection{
			HotThreshold: ptr(1.5), // out of [0, 1]
			MaxBatches:   ptr(-1),  // negative
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
		"phase.hot_threshold":   FieldCodeOutOfRange,
		"phase.max_batches":     FieldCodeOutOfRange,
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
		`{"phase": {"hot_threshold": NaN}}`,
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
		Phase: &PhasePatchSection{HotThreshold: ptr(0.5), Window: ptr(16)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Phase.HotThreshold != 0.5 || doc.Phase.Window != 16 {
		t.Fatalf("engine-backed patch response %+v", doc.Phase)
	}
	rc, err := eng.RuntimeConfig(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Phase.HotThreshold != 0.5 || rc.Phase.Window != 16 {
		t.Fatalf("engine runtime config %+v", rc.Phase)
	}
}

// TestAllocationCarriesPhaseLag tunes phase reconciliation on over
// PATCH /v1/config, heats a component with repeated weight updates, and
// checks GET /v1/allocation reports the resulting lag — then that a
// snapshot barrier drains it back to zero.
func TestAllocationCarriesPhaseLag(t *testing.T) {
	c, eng := newEngineTestServer(t)
	ctx := context.Background()

	if _, err := c.SetConfig(ctx, ConfigPatchRequest{
		Phase: &PhasePatchSection{
			HotThreshold:  ptr(0.3),
			MaxBatches:    ptr(1000),
			MaxIntervalMS: ptr(600000),
			Window:        ptr(4),
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddJob(ctx, AddJobRequest{ID: "h1", Demand: []float64{1, 1}, Work: []float64{1e6, 1e6}}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddJob(ctx, AddJobRequest{ID: "h2", Demand: []float64{1, 0}, Work: []float64{1e6, 0}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := c.UpdateWeight(ctx, "h1", 1+float64(i%3)); err != nil {
			t.Fatal(err)
		}
	}
	alloc, err := c.Allocation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.PhaseLag == 0 || alloc.HotComponents == 0 {
		t.Fatalf("allocation phase_lag = %d, hot_components = %d; want both > 0",
			alloc.PhaseLag, alloc.HotComponents)
	}
	// Snapshot is a barrier: afterwards reads are exact again.
	if _, err := c.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}
	if alloc, err = c.Allocation(ctx); err != nil {
		t.Fatal(err)
	}
	if alloc.PhaseLag != 0 {
		t.Fatalf("phase_lag after snapshot barrier = %d, want 0", alloc.PhaseLag)
	}
	_ = eng
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
	for _, key := range []string{"site_capacity", "policy", "solver", "phase"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("document lacks %q: %s", key, rec.Body.String())
		}
	}
}
