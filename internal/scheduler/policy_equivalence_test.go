package scheduler

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/policy"
)

// TestPolicyEquivalenceStreams is the acceptance property test of the
// pluggable policy layer: for every selectable policy, 200 random churn
// streams are driven through (a) a controller on the default serving path
// — incremental solving engaged — and (b) a from-scratch controller with
// a separate policy instance, and the allocations must agree at
// 1e-9·Scale after every mutation. Each step is additionally checked
// against a brand-new policy instance solving the resolved view directly,
// so no state carried on either controller can mask a staleness bug. Run under -race in CI.
func TestPolicyEquivalenceStreams(t *testing.T) {
	const (
		streams   = 200
		mutations = 8
	)
	for _, name := range policy.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(811))
			for stream := 0; stream < streams; stream++ {
				pol, err := policy.ForName(name)
				if err != nil {
					t.Fatal(err)
				}
				refPol, err := policy.ForName(name)
				if err != nil {
					t.Fatal(err)
				}
				h := newStreamHarnessPair(t, rng, pol, refPol, 2, 3)
				h.freshRef = func() policy.Policy {
					p, err := policy.ForName(name)
					if err != nil {
						t.Fatal(err)
					}
					return p
				}
				for i := 0; i < 2+rng.Intn(4); i++ {
					h.addJob()
				}
				h.compare(fmt.Sprintf("policy %s stream %d init", name, stream))
				for mut := 0; mut < mutations; mut++ {
					switch h.rng.Intn(5) {
					case 0:
						h.addJob()
					case 1:
						h.removeJob()
					case 2:
						h.updateWeight()
					default:
						h.reportProgress()
					}
					h.compare(fmt.Sprintf("policy %s stream %d mut %d", name, stream, mut))
				}
			}
		})
	}
}

// TestSchedulerPolicySwitchMidStream switches the policy on a live,
// churning controller and keeps comparing against a from-scratch
// controller switched at the same point: a runtime switch must trigger a
// clean full re-solve (every job re-marked dirty, incremental state
// reinstalled or dropped per the new policy's capability), never serve an
// allocation computed under the old policy.
func TestSchedulerPolicySwitchMidStream(t *testing.T) {
	names := policy.Names()
	rng := rand.New(rand.NewSource(4711))
	for trial := 0; trial < 24; trial++ {
		from := names[rng.Intn(len(names))]
		to := names[rng.Intn(len(names))]
		polInc, err := policy.ForName(from)
		if err != nil {
			t.Fatal(err)
		}
		polRef, err := policy.ForName(from)
		if err != nil {
			t.Fatal(err)
		}
		h := newStreamHarnessPair(t, rng, polInc, polRef, 2, 3)
		for i := 0; i < 4; i++ {
			h.addJob()
		}
		h.compare(fmt.Sprintf("trial %d (%s) pre-switch", trial, from))
		for mut := 0; mut < 4; mut++ {
			h.updateWeight()
			h.reportProgress()
			h.compare(fmt.Sprintf("trial %d (%s) mut %d", trial, from, mut))
		}
		for _, sc := range []*Scheduler{h.inc, h.ref} {
			if err := sc.SetPolicyName(to); err != nil {
				t.Fatal(err)
			}
			if got := sc.PolicyName(); got != to {
				t.Fatalf("trial %d: PolicyName %q after switch to %q", trial, got, to)
			}
		}
		h.freshRef = func() policy.Policy {
			p, err := policy.ForName(to)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		h.compare(fmt.Sprintf("trial %d %s->%s post-switch", trial, from, to))
		for mut := 0; mut < 4; mut++ {
			switch h.rng.Intn(4) {
			case 0:
				h.addJob()
			case 1:
				h.removeJob()
			default:
				h.updateWeight()
			}
			h.compare(fmt.Sprintf("trial %d %s->%s mut %d", trial, from, to, mut))
		}
	}
}

// TestSchedulerSetPolicyNameErrors pins the error surface of runtime
// switching: unknown names are rejected without touching the active
// policy, and switching to the same policy is a no-op.
func TestSchedulerSetPolicyNameErrors(t *testing.T) {
	sc, err := New(Config{SiteCapacity: []float64{1, 1}, Policy: policy.AMF})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.SetPolicyName("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if got := sc.PolicyName(); got != "amf" {
		t.Fatalf("policy changed to %q by a failed switch", got)
	}
	if err := sc.SetPolicyName("amf"); err != nil {
		t.Fatalf("same-policy switch: %v", err)
	}
	if err := sc.SetPolicyName("psmmf"); err != nil {
		t.Fatal(err)
	}
	if got := sc.PolicyName(); got != "psmmf" {
		t.Fatalf("PolicyName %q, want psmmf", got)
	}
}

// TestSnapshotPolicyMismatchRefused: a snapshot taken under one policy
// must not restore into a controller running another — the WAL recovery
// path relies on this refusal to surface misconfigured deployments.
func TestSnapshotPolicyMismatchRefused(t *testing.T) {
	src, err := New(Config{SiteCapacity: []float64{2, 2}, Policy: policy.AMF})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.AddJob("a", 1, []float64{1, 1}, nil); err != nil {
		t.Fatal(err)
	}
	snap := src.Snapshot()
	if snap.Policy != "amf" {
		t.Fatalf("snapshot policy %q, want amf", snap.Policy)
	}

	dst, err := New(Config{SiteCapacity: []float64{2, 2}, Policy: mustPolicy(t, "psmmf")})
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(snap); err == nil {
		t.Fatal("mismatched snapshot restored")
	}
	// Same policy restores fine; a legacy snapshot without the header is
	// accepted for compatibility.
	same, err := New(Config{SiteCapacity: []float64{2, 2}, Policy: policy.AMF})
	if err != nil {
		t.Fatal(err)
	}
	if err := same.Restore(snap); err != nil {
		t.Fatalf("matching restore: %v", err)
	}
	snap.Policy = ""
	if err := dst.Restore(snap); err != nil {
		t.Fatalf("legacy snapshot refused: %v", err)
	}
}

func mustPolicy(t *testing.T, name string) policy.Policy {
	t.Helper()
	p, err := policy.ForName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
