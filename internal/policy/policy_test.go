package policy

import (
	"context"
	"testing"

	"repro/internal/core"
)

func TestForNameRoundTrip(t *testing.T) {
	for _, name := range Names() {
		p, err := ForName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("ForName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := ForName("bogus"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := ForName(""); err == nil {
		t.Fatal("empty policy name accepted")
	}
}

func TestCapabilityMatrix(t *testing.T) {
	want := map[string]Capabilities{
		"amf":          {Incremental: true, Approx: true},
		"amf+jct":      {},
		"amf-enhanced": {Incremental: true, GlobalWeightFloors: true, Approx: true},
		"psmmf":        {},
		"drf":          {MultiResource: true},
		"propfair":     {},
	}
	for _, name := range Names() {
		p, err := ForName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Capabilities(); got != want[name] {
			t.Fatalf("%s capabilities %+v, want %+v", name, got, want[name])
		}
	}
}

func TestFingerprintsDistinct(t *testing.T) {
	seen := map[uint64]string{}
	for _, name := range Names() {
		p, err := ForName(name)
		if err != nil {
			t.Fatal(err)
		}
		fp := p.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Fatalf("policies %s and %s share fingerprint %#x", prev, name, fp)
		}
		seen[fp] = name
	}
	// Parameter changes must change the fingerprint: a tuned instance can
	// never share a cache entry with a default one.
	if (&DRF{Eps: 1e-9}).Fingerprint() == NewDRF().Fingerprint() {
		t.Fatal("DRF fingerprint ignores Eps")
	}
	if (&PropFair{Tol: 1e-6}).Fingerprint() == NewPropFair().Fingerprint() {
		t.Fatal("PropFair fingerprint ignores Tol")
	}
}

func TestStatefulPoliciesGetFreshInstances(t *testing.T) {
	a, _ := ForName("drf")
	b, _ := ForName("drf")
	if a.(*DRF) == b.(*DRF) {
		t.Fatal("ForName(drf) shares cache state between controllers")
	}
	x, _ := ForName("amf")
	y, _ := ForName("amf")
	if x != y {
		t.Fatal("stateless policies should be shared singletons")
	}
}

func TestAllocateRespectsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := &core.Instance{
		SiteCapacity: []float64{1},
		Demand:       [][]float64{{1}},
	}
	for _, name := range []string{"amf", "amf+jct", "amf-enhanced"} {
		p, err := ForName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.Allocate(ctx, &View{Inst: in}); err == nil {
			t.Fatalf("%s: cancelled context accepted", name)
		}
	}
}
