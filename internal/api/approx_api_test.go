package api

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestApproxConfigRoundTrip(t *testing.T) {
	c, sc := newTestServer(t)
	ctx := context.Background()

	// Fresh controller: knobs default to disabled (0, 0).
	got, err := c.Config(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Solver != (SolverConfigSection{}) {
		t.Fatalf("default knobs %+v, want zero", got.Solver)
	}

	if _, err := c.SetConfig(ctx, ConfigPatchRequest{Solver: &SolverPatchSection{
		ApproxEpsilon: ptr(0.02), ApproxThreshold: ptr(5000),
	}}); err != nil {
		t.Fatal(err)
	}
	got, err = c.Config(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Solver.ApproxEpsilon != 0.02 || got.Solver.ApproxThreshold != 5000 {
		t.Fatalf("knobs after PATCH %+v, want {0.02 5000}", got.Solver)
	}
	// The scheduler behind the server observed the same values.
	if eps, th := sc.ApproxConfig(); eps != 0.02 || th != 5000 {
		t.Fatalf("scheduler knobs (%g, %d), want (0.02, 5000)", eps, th)
	}
}

func TestApproxConfigValidation(t *testing.T) {
	c, _ := newTestServer(t)
	ctx := context.Background()

	if _, err := c.SetConfig(ctx, ConfigPatchRequest{Solver: &SolverPatchSection{
		ApproxEpsilon: ptr(-0.01), ApproxThreshold: ptr(100),
	}}); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("negative epsilon: got %v, want invalid_argument", err)
	}
	if _, err := c.SetConfig(ctx, ConfigPatchRequest{Solver: &SolverPatchSection{
		ApproxEpsilon: ptr(0.01), ApproxThreshold: ptr(-1),
	}}); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("negative threshold: got %v, want invalid_argument", err)
	}
}

// TestApproxConfigRejectsNonFinite drives the raw HTTP surface: NaN and
// Inf cannot ride JSON numbers, so they must surface as a stable
// invalid_argument decode failure, never a 500 or a silently-zero knob.
func TestApproxConfigRejectsNonFinite(t *testing.T) {
	sc, srv := newDirectServer(t)
	for _, body := range []string{
		`{"solver": {"approx_epsilon": NaN, "approx_threshold": 10}}`,
		`{"solver": {"approx_epsilon": Infinity, "approx_threshold": 10}}`,
		`{"solver": {"approx_epsilon": 1e999, "approx_threshold": 10}}`,
	} {
		req := httptest.NewRequest(http.MethodPatch, "/v1/config", strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("body %s: status %d, want 400", body, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), CodeInvalidArgument) {
			t.Fatalf("body %s: response %s lacks %q", body, rec.Body.String(), CodeInvalidArgument)
		}
	}
	if eps, th := sc.ApproxConfig(); eps != 0 || th != 0 {
		t.Fatalf("rejected requests mutated knobs to (%g, %d)", eps, th)
	}
}
