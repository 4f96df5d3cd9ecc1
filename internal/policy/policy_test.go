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
		if _, err := p.Allocate(ctx, &View{Inst: in}); err == nil {
			t.Fatalf("%s: cancelled context accepted", name)
		}
	}
}
