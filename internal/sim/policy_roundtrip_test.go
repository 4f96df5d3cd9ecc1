package sim

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/api"
	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/serve"
)

// The enum survives only as the paper experiments' iteration form; its
// identity must stay glued to the policy layer's: String() is the layer's
// stable name, Impl() is the shared implementation, and ParsePolicy
// round-trips.
func TestPolicyEnumMatchesPolicyLayer(t *testing.T) {
	for _, p := range Policies() {
		impl := p.Impl()
		if impl == nil {
			t.Fatalf("%v: no implementation", p)
		}
		if impl.Name() != p.String() {
			t.Fatalf("%v: Impl().Name() = %q, String() = %q", p, impl.Name(), p.String())
		}
		byName, err := policy.ForName(p.String())
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if byName.Name() != impl.Name() {
			t.Fatalf("%v: ForName gives %q", p, byName.Name())
		}
		back, err := ParsePolicy(p.String())
		if err != nil || back != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), back, err)
		}
	}
	if Policy(99).Impl() != nil {
		t.Fatal("out-of-range enum has an implementation")
	}
}

// TestOnePolicyEnum: the serving stack offers exactly the paper's four
// disciplines, the same set the simulator's enum names. The retired drf
// and propfair are refused on both sides, and GET /v1/policy advertises
// the four and nothing else.
func TestOnePolicyEnum(t *testing.T) {
	var enum []string
	for _, p := range Policies() {
		enum = append(enum, p.String())
	}
	served := policy.Names()
	slices.Sort(enum)
	slices.Sort(served)
	if !slices.Equal(enum, served) {
		t.Fatalf("policy.Names() = %v, sim enum = %v", served, enum)
	}
	for _, retired := range []string{"drf", "propfair"} {
		if _, err := policy.ForName(retired); err == nil {
			t.Fatalf("policy.ForName(%q) accepted", retired)
		}
		if _, err := ParsePolicy(retired); err == nil {
			t.Fatalf("ParsePolicy(%q) accepted", retired)
		}
	}

	sc, err := scheduler.New(scheduler.Config{SiteCapacity: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.New(sc, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	rec := httptest.NewRecorder()
	api.NewBackendServer(eng, nil, []float64{1}, policy.AMF).Handler().
		ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/policy", nil))
	var pr api.PolicyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	available := slices.Clone(pr.Available)
	slices.Sort(available)
	if rec.Code != http.StatusOK || len(pr.Available) != 4 || !slices.Equal(available, enum) {
		t.Fatalf("GET /v1/policy = %d %s, want the four policies %v", rec.Code, rec.Body.String(), enum)
	}
}
