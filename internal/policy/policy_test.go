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
		"amf":          {},
		"amf+jct":      {},
		"amf-enhanced": {GlobalWeightFloors: true},
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

// TestPolicyKernels pins each policy's per-component kernel — a policy's
// whole behaviour — and checks that Allocate is exactly the core solver's
// solve under that kernel.
func TestPolicyKernels(t *testing.T) {
	want := map[string]core.Kernel{
		"amf":          core.KernelAMF,
		"amf+jct":      core.KernelJCT,
		"amf-enhanced": core.KernelEnhanced,
		"psmmf":        core.KernelPSMMF,
	}
	in := &core.Instance{
		SiteCapacity: []float64{2, 3, 1},
		Demand:       [][]float64{{2, 1, 0}, {0, 3, 0}, {0, 0, 2}, {1, 0, 0}},
		Work:         [][]float64{{4, 1, 0}, {0, 3, 0}, {0, 0, 5}, {1, 0, 1}},
		Weight:       []float64{1, 2, 1, 0.5},
	}
	for _, name := range Names() {
		p, err := ForName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Kernel() != want[name] {
			t.Fatalf("%s: kernel %d, want %d", name, p.Kernel(), want[name])
		}
		got, err := p.Allocate(context.Background(), &View{Inst: in})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.NewSolver().Solve(in, want[name])
		if err != nil {
			t.Fatal(err)
		}
		for j := range ref.Share {
			for s, v := range ref.Share[j] {
				if got.Share[j][s] != v {
					t.Fatalf("%s: job %d site %d: Allocate %v, Solve %v", name, j, s, got.Share[j][s], v)
				}
			}
		}
	}
}
