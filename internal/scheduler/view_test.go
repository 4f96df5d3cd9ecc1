package scheduler

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fairness"
	"repro/internal/policy"
)

// checkCachedView asserts that the controller's cached, copy-on-write
// patched shell equals a shell built from scratch right now — every slot,
// by value — and that every job's recorded row points at its own slot.
func checkCachedView(t *testing.T, tag string, sc *Scheduler) {
	t.Helper()
	sc.mu.Lock()
	defer sc.mu.Unlock()
	cached := sc.viewLocked()
	fresh := sc.buildViewLocked()
	eqRows := func(a, b []float64) bool { return slices.Equal(a, b) }
	if !slices.Equal(cached.JobName, fresh.JobName) {
		t.Fatalf("%s: cached names %v, fresh %v", tag, cached.JobName, fresh.JobName)
	}
	if !slices.Equal(cached.Weight, fresh.Weight) {
		t.Fatalf("%s: cached weights %v, fresh %v", tag, cached.Weight, fresh.Weight)
	}
	if !slices.EqualFunc(cached.Demand, fresh.Demand, eqRows) {
		t.Fatalf("%s: cached demand rows differ from a fresh build", tag)
	}
	if !slices.EqualFunc(cached.Work, fresh.Work, eqRows) {
		t.Fatalf("%s: cached work rows differ from a fresh build", tag)
	}
	if !slices.Equal(cached.SiteCapacity, fresh.SiteCapacity) || cached.ExternalWeight != fresh.ExternalWeight {
		t.Fatalf("%s: cached capacity/external weight differ from a fresh build", tag)
	}
	if len(cached.JobName) != len(sc.jobs) {
		t.Fatalf("%s: shell holds %d jobs, controller %d", tag, len(cached.JobName), len(sc.jobs))
	}
	for id, j := range sc.jobs {
		if j.row < 0 || j.row >= len(cached.JobName) || cached.JobName[j.row] != id {
			t.Fatalf("%s: job %q records row %d, which is not its slot", tag, id, j.row)
		}
		// The published rows are snapshots, never the live mutable ones.
		if len(j.Demand) > 0 && &cached.Demand[j.row][0] == &j.Demand[0] {
			t.Fatalf("%s: job %q: shell aliases the mutable demand row", tag, id)
		}
	}
}

// TestCachedViewMatchesFreshBuildLongStream replays the long mixed stream
// of TestIncrementalSchedulerLongStream (same seed and op mix — adds,
// removals, weight updates, progress with site exhaustion and completion,
// tombstone compaction — plus external-weight changes)
// and after every mutation — both before and after the re-solve — compares
// the cached shell with a fresh build, on the incremental and on the
// from-scratch controller.
func TestCachedViewMatchesFreshBuildLongStream(t *testing.T) {
	const mutations = 520
	rng := rand.New(rand.NewSource(777))
	h := newStreamHarness(t, rng, policy.AMF, 4, 3)
	for i := 0; i < 6; i++ {
		h.addJob()
	}
	h.compare("init")
	var held []*core.Instance
	for mut := 0; mut < mutations; mut++ {
		switch h.rng.Intn(12) {
		case 0:
			h.addJob()
		case 1:
			h.removeJob()
		case 2, 3:
			h.updateWeight()
		case 4:
			h.addJob()
		case 5:
			h.removeJob()
		case 6:
			w := h.rng.Float64() * 3
			for _, sc := range []*Scheduler{h.inc, h.ref} {
				if err := sc.SetExternalWeight(w); err != nil {
					t.Fatal(err)
				}
			}
		default:
			h.reportProgress()
		}
		tag := fmt.Sprintf("mut %d", mut)
		for _, sc := range []*Scheduler{h.inc, h.ref} {
			checkCachedView(t, tag+" before solve", sc)
		}
		h.compare(tag)
		for _, sc := range []*Scheduler{h.inc, h.ref} {
			checkCachedView(t, tag+" after solve", sc)
		}
		// An unchanged job set hands out the very same shell and map.
		in1, sh1, _ := h.inc.Resolve()
		in2, sh2, _ := h.inc.Resolve()
		if in1 != in2 || fmt.Sprintf("%p", sh1) != fmt.Sprintf("%p", sh2) {
			t.Fatalf("%s: Resolve rebuilt the shell or the share map with nothing changed", tag)
		}
		held = append(held, in1)
	}
	// Every shell ever handed out is still internally consistent: later
	// patches and appends never reached into it.
	for k, in := range held {
		if err := in.Validate(); err != nil {
			t.Fatalf("shell %d corrupted after the stream: %v", k, err)
		}
		if len(in.Demand) != len(in.JobName) || len(in.Work) != len(in.JobName) || len(in.Weight) != len(in.JobName) {
			t.Fatalf("shell %d has ragged slices", k)
		}
	}
}

// denseFairness recomputes the fairness summary from full share rows, the
// way the serving engine's gauge refresh used to: the reference the
// partials are checked against.
func denseFairness(in *core.Instance, shares map[string][]float64) (jain, mn, mx float64) {
	if len(in.JobName) == 0 {
		return 1, 0, 0
	}
	agg := make([]float64, len(in.JobName))
	for i, id := range in.JobName {
		for _, v := range shares[id] {
			agg[i] += v
		}
	}
	norm := fairness.NormalizedShares(agg, in.Weight)
	return fairness.JainIndex(agg), slices.Min(norm), slices.Max(norm)
}

// TestViewFairnessMatchesDenseAcrossPaths: the fairness summary a
// ResolveView carries equals a dense recomputation over the same view's
// rows on both solve paths — incremental (reduced per component) and flat
// policies (computed at install) — after every mutation of the long stream.
func TestViewFairnessMatchesDenseAcrossPaths(t *testing.T) {
	for _, name := range []string{"amf", "amf-enhanced", "amf+jct", "psmmf"} {
		pol, err := policy.ForName(name)
		if err != nil {
			t.Fatal(err)
		}
		refPol, _ := policy.ForName(name)
		rng := rand.New(rand.NewSource(4242))
		h := newStreamHarnessPair(t, rng, pol, refPol, 4, 3)
		for mut := 0; mut < 150; mut++ {
			switch h.rng.Intn(10) {
			case 0, 1:
				h.addJob()
			case 2:
				h.removeJob()
			case 3, 4:
				h.updateWeight()
			case 5:
				h.addJob()
			case 6:
				h.removeJob()
			default:
				h.reportProgress()
			}
			v, err := h.inc.ResolveView()
			if err != nil {
				t.Fatal(err)
			}
			if v.Policy != name || v.Stats.Jobs != len(v.Inst.JobName) || len(v.Shares) != len(v.Inst.JobName) {
				t.Fatalf("%s mut %d: view is not of one instant: policy %q, %d jobs in stats, %d rows, %d names",
					name, mut, v.Policy, v.Stats.Jobs, len(v.Shares), len(v.Inst.JobName))
			}
			wj, wmn, wmx := denseFairness(v.Inst, v.Shares)
			gmn, gmx := v.Fairness.MinMax()
			for _, p := range [][2]float64{{v.Fairness.Jain(), wj}, {gmn, wmn}, {gmx, wmx}} {
				if d := math.Abs(p[0] - p[1]); d > 1e-12*math.Max(math.Abs(p[0]), math.Abs(p[1])) {
					t.Fatalf("%s mut %d: fairness %v from partials, %v dense", name, mut, p[0], p[1])
				}
			}
		}
	}
}

// TestRemovedListIsBounded: removals the incremental solver never gets to
// consume (nobody resolves) must not accumulate forever; past the bound
// the controller drops the solver's carried state instead, and the next
// solve is still exact.
func TestRemovedListIsBounded(t *testing.T) {
	sc := newTestScheduler(t, 4, 4, 4, 4)
	if err := sc.AddJob("keep", 1, []float64{1, 1, 0, 0}, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sc.Resolve(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		id := fmt.Sprintf("t%d", i)
		if err := sc.AddJob(id, 1, []float64{0, 0, 1, 1}, nil); err != nil {
			t.Fatal(err)
		}
		if err := sc.RemoveJob(id); err != nil {
			t.Fatal(err)
		}
	}
	sc.mu.Lock()
	pending := len(sc.removed)
	sc.mu.Unlock()
	if pending > 2*64+64 {
		t.Fatalf("%d removals pending for the incremental solver after 5000 unobserved add/remove cycles", pending)
	}
	_, shares, err := sc.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != 1 || shares["keep"] == nil {
		t.Fatalf("shares after the churn = %v, want just \"keep\"", shares)
	}
}
