package scheduler

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
)

// streamHarness drives two controllers — one incremental, one forced
// from-scratch — through an identical mutation stream and compares their
// allocations after every step. Jobs demand within site blocks so the
// instance keeps the sparse multi-component shape the incremental path
// targets.
type streamHarness struct {
	t        *testing.T
	inc, ref *Scheduler
	rng      *rand.Rand
	blocks   int
	spb      int
	live     []string
	next     int
	// freshRef, when set, builds a brand-new policy instance per compare:
	// the serving-path allocation is additionally checked against a direct,
	// cache-cold solve of the resolved instance.
	freshRef func() policy.Policy
}

func newStreamHarness(t *testing.T, rng *rand.Rand, pol policy.Policy, blocks, spb int) *streamHarness {
	return newStreamHarnessPair(t, rng, pol, pol, blocks, spb)
}

// newStreamHarnessPair gives the incremental and the from-scratch
// controller separate policy values.
func newStreamHarnessPair(t *testing.T, rng *rand.Rand, pol, refPol policy.Policy, blocks, spb int) *streamHarness {
	t.Helper()
	caps := make([]float64, blocks*spb)
	for s := range caps {
		caps[s] = 0.5 + rng.Float64()*4.5
	}
	inc, err := New(Config{SiteCapacity: caps, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	// Every policy runs through the one incremental solver, under its own
	// kernel; DisableIncremental only resets it before each solve.
	ref, err := New(Config{SiteCapacity: append([]float64(nil), caps...), Policy: refPol, DisableIncremental: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []*Scheduler{inc, ref} {
		if sc.inc == nil || sc.inc.Kernel != sc.cfg.Policy.Kernel() {
			t.Fatalf("policy %s: solver not installed under the policy's kernel", sc.cfg.Policy.Name())
		}
	}
	return &streamHarness{t: t, inc: inc, ref: ref, rng: rng, blocks: blocks, spb: spb}
}

func (h *streamHarness) blockDemand(b int) []float64 {
	row := make([]float64, h.blocks*h.spb)
	s0 := b * h.spb
	row[s0] = 0.1 + h.rng.Float64()*2 // anchor keeps the block connected
	for _, off := range h.rng.Perm(h.spb - 1)[:h.rng.Intn(h.spb)] {
		row[s0+1+off] = 0.1 + h.rng.Float64()*2
	}
	return row
}

func (h *streamHarness) addJob() {
	id := fmt.Sprintf("j%d", h.next)
	h.next++
	demand := h.blockDemand(h.rng.Intn(h.blocks))
	w := 0.5 + h.rng.Float64()*3.5
	for _, sc := range []*Scheduler{h.inc, h.ref} {
		if err := sc.AddJob(id, w, demand, nil); err != nil {
			h.t.Fatal(err)
		}
	}
	h.live = append(h.live, id)
}

func (h *streamHarness) removeJob() {
	if len(h.live) == 0 {
		return
	}
	i := h.rng.Intn(len(h.live))
	id := h.live[i]
	for _, sc := range []*Scheduler{h.inc, h.ref} {
		if err := sc.RemoveJob(id); err != nil {
			h.t.Fatal(err)
		}
	}
	h.live = append(h.live[:i], h.live[i+1:]...)
}

func (h *streamHarness) updateWeight() {
	if len(h.live) == 0 {
		return
	}
	id := h.live[h.rng.Intn(len(h.live))]
	w := 0.5 + h.rng.Float64()*3.5
	for _, sc := range []*Scheduler{h.inc, h.ref} {
		if err := sc.UpdateWeight(id, w); err != nil {
			h.t.Fatal(err)
		}
	}
}

func (h *streamHarness) reportProgress() {
	if len(h.live) == 0 {
		return
	}
	i := h.rng.Intn(len(h.live))
	id := h.live[i]
	done := make([]float64, h.blocks*h.spb)
	for s := range done {
		done[s] = h.rng.Float64() * 1.5
	}
	var completed bool
	for k, sc := range []*Scheduler{h.inc, h.ref} {
		c, err := sc.ReportProgress(id, done)
		if err != nil {
			h.t.Fatal(err)
		}
		if k == 0 {
			completed = c
		} else if c != completed {
			h.t.Fatalf("job %q: completion disagrees between incremental (%v) and reference (%v)", id, completed, c)
		}
	}
	if completed {
		h.live = append(h.live[:i], h.live[i+1:]...)
	}
}

// compare resolves both controllers and asserts equal aggregates at
// 1e-9·Scale plus feasibility of the incremental allocation.
func (h *streamHarness) compare(tag string) {
	h.t.Helper()
	inIn, shInc, err := h.inc.Resolve()
	if err != nil {
		h.t.Fatalf("%s: incremental resolve: %v", tag, err)
	}
	_, shRef, err := h.ref.Resolve()
	if err != nil {
		h.t.Fatalf("%s: reference resolve: %v", tag, err)
	}
	if len(shInc) != len(shRef) {
		h.t.Fatalf("%s: %d share rows (incremental) vs %d (reference)", tag, len(shInc), len(shRef))
	}
	tol := 1e-9 * inIn.Scale()
	for id, rowInc := range shInc {
		rowRef, ok := shRef[id]
		if !ok {
			h.t.Fatalf("%s: job %q only in incremental allocation", tag, id)
		}
		var aInc, aRef float64
		for s := range rowInc {
			aInc += rowInc[s]
			aRef += rowRef[s]
		}
		if d := math.Abs(aInc - aRef); d > tol {
			h.t.Fatalf("%s: job %q aggregate %g (incremental) vs %g (scratch), |diff| %g > %g",
				tag, id, aInc, aRef, d, tol)
		}
	}
	alloc := &core.Allocation{Inst: inIn, Share: make([][]float64, len(inIn.JobName))}
	for i, id := range inIn.JobName {
		alloc.Share[i] = shInc[id]
	}
	if err := alloc.CheckFeasible(1e-6 * inIn.Scale()); err != nil {
		h.t.Fatalf("%s: incremental allocation infeasible: %v", tag, err)
	}
	if h.freshRef == nil {
		return
	}
	// Same solver configuration as the controllers' default (New sets
	// SkipJCTRefine), so the only variable is the policy instance's state.
	direct, err := h.freshRef().Allocate(context.Background(),
		&policy.View{Inst: inIn, Solver: &core.Solver{SkipJCTRefine: true}})
	if err != nil {
		h.t.Fatalf("%s: fresh-policy solve: %v", tag, err)
	}
	for i, id := range inIn.JobName {
		var aInc, aDir float64
		for s := range direct.Share[i] {
			aInc += shInc[id][s]
			aDir += direct.Share[i][s]
		}
		if d := math.Abs(aInc - aDir); d > tol {
			h.t.Fatalf("%s: job %q aggregate %g (serving path) vs %g (fresh policy), |diff| %g > %g",
				tag, id, aInc, aDir, d, tol)
		}
	}
}

// TestIncrementalSchedulerEquivalenceStreams is the acceptance property
// test: over 200 random mutation streams (AMF and Enhanced AMF), a
// controller on the incremental path produces the same allocation as a
// from-scratch controller after every mutation. Run under -race in CI this
// also exercises the parallel component workers.
func TestIncrementalSchedulerEquivalenceStreams(t *testing.T) {
	const (
		streams   = 200
		mutations = 12
	)
	rng := rand.New(rand.NewSource(2026))
	for stream := 0; stream < streams; stream++ {
		pol := policy.AMF
		if stream%2 == 1 {
			pol = policy.EnhancedAMF
		}
		h := newStreamHarness(t, rng, pol, 2+rng.Intn(3), 3)
		for i := 0; i < 3+rng.Intn(5); i++ {
			h.addJob()
		}
		h.compare(fmt.Sprintf("stream %d init", stream))
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
			h.compare(fmt.Sprintf("stream %d (%s) mut %d", stream, pol.Name(), mut))
		}
	}
}

// TestIncrementalSchedulerLongStream runs one long stream of 500+
// mutations — adds, removals, weight updates, progress with site
// exhaustion and completion, tombstone compaction — and compares the
// incremental controller with the from-scratch one after every step.
func TestIncrementalSchedulerLongStream(t *testing.T) {
	const mutations = 520
	rng := rand.New(rand.NewSource(777))
	h := newStreamHarness(t, rng, policy.AMF, 4, 3)
	for i := 0; i < 6; i++ {
		h.addJob()
	}
	h.compare("init")
	reused := 0
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
		default:
			h.reportProgress()
		}
		h.compare(fmt.Sprintf("mut %d", mut))
		reused += h.inc.Stats().LastReused
	}
	if reused == 0 {
		t.Fatalf("long stream never reused anything: %+v", h.inc.Stats())
	}
}

// TestProgressToleranceLargeWork is the regression for the exhaustion
// tolerance: with ~1e12 of work reported in inexact thirds, float residue
// (~1e-4) dwarfs an absolute 1e-12 epsilon, and the site would never be
// considered exhausted. The tolerance must scale with the work magnitude.
func TestProgressToleranceLargeWork(t *testing.T) {
	sc := newTestScheduler(t, 10)
	const work = 1e12
	if err := sc.AddJob("big", 1, []float64{100}, []float64{work}); err != nil {
		t.Fatal(err)
	}
	third := work / 3 // not exactly representable: thirds leave residue
	var completed bool
	for i := 0; i < 3; i++ {
		var err error
		completed, err = sc.ReportProgress("big", []float64{third})
		if err != nil {
			t.Fatal(err)
		}
		if i < 2 && completed {
			t.Fatalf("job completed after %d/3 of its work", i+1)
		}
	}
	if !completed {
		t.Fatal("job not completed after all work reported in thirds: exhaustion tolerance must be scale-relative")
	}
	if st := sc.Stats(); st.Completed != 1 || st.Jobs != 0 {
		t.Fatalf("completion not recorded: %+v", st)
	}
}

// TestTelemetryAfterPolicySwitch: every policy runs through the
// component pipeline, so after a switch to PS-MMF the solve reports its
// own decomposition — both components re-solved by the switch's full
// solve, then one re-solved and one reused after a single-job mutation.
func TestTelemetryAfterPolicySwitch(t *testing.T) {
	sc, err := New(Config{SiteCapacity: []float64{1, 1}, Policy: policy.AMF})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.AddJob("a", 1, []float64{1, 0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := sc.AddJob("b", 1, []float64{0, 1}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Allocation(); err != nil {
		t.Fatal(err)
	}
	if st := sc.Stats(); st.LastComponents != 2 {
		t.Fatalf("AMF solve: %+v", st)
	}
	if err := sc.SetPolicy(policy.PSMMF); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Allocation(); err != nil {
		t.Fatal(err)
	}
	st := sc.Stats()
	if st.LastComponents != 2 || st.LastLargestComponent != 1 || st.LastSpeedup <= 0 {
		t.Fatalf("PS-MMF solve after the switch: decomposition %+v", st)
	}
	if st.LastResolved != 2 || st.LastReused != 0 {
		t.Fatalf("PS-MMF solve after the switch: resolved %d reused %d, want 2/0", st.LastResolved, st.LastReused)
	}
	if err := sc.UpdateWeight("a", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Allocation(); err != nil {
		t.Fatal(err)
	}
	if st := sc.Stats(); st.LastResolved != 1 || st.LastReused != 1 {
		t.Fatalf("PS-MMF single-job mutation: resolved %d reused %d, want 1/1", st.LastResolved, st.LastReused)
	}
}

// TestOneComponentCommitSpeedup: the speedup is the worker pool's, so a
// commit that re-solves one component reads exactly 1 under every policy.
// The commit exhausts one site of one job: it moves no weight, so not even
// Enhanced AMF's floors invalidate the other components.
func TestOneComponentCommitSpeedup(t *testing.T) {
	for _, name := range policy.Names() {
		sc, err := New(Config{SiteCapacity: []float64{1, 1, 1, 1, 1, 1}, Policy: mustPolicy(t, name)})
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 3; b++ {
			demand := make([]float64, 6)
			demand[2*b], demand[2*b+1] = 2, 2
			if err := sc.AddJob(fmt.Sprintf("j%d", b), 1, demand, nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sc.Allocation(); err != nil {
			t.Fatal(err)
		}
		if _, err := sc.ReportProgress("j1", []float64{0, 0, 2, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Allocation(); err != nil {
			t.Fatal(err)
		}
		if st := sc.Stats(); st.LastResolved != 1 || st.LastSpeedup != 1 {
			t.Fatalf("%s: one-component commit resolved %d, speedup %v, want 1 and 1", name, st.LastResolved, st.LastSpeedup)
		}
	}
}

// TestJCTProgressResplitsOnNextSolve: under amf+jct the split depends on
// outstanding work. Component A holds sites 0 and 1, component B site 2.
//   - Steady progress in A needs no solve (hysteresis), but the next
//     solve — here forced by a weight change in B — must re-split A with
//     its current work.
//   - Work at a site a job does not demand, here in B, excludes the job
//     from the stretch search; progress that uses up only that work
//     brings it back, though A's own work is unchanged.
//
// Either way the rows must equal a from-scratch controller's bit for bit.
func TestJCTProgressResplitsOnNextSolve(t *testing.T) {
	cases := []struct {
		name  string
		a1    []float64 // a1's work; its demand is {2, 2, 0}
		steps func(t *testing.T, sc *Scheduler)
	}{
		{"steady progress", []float64{10, 10, 0}, func(t *testing.T, sc *Scheduler) {
			for _, done := range [][]float64{{4, 0, 0}, {3, 1, 0}} {
				if _, err := sc.ReportProgress("a1", done); err != nil {
					t.Fatal(err)
				}
			}
			if st := sc.Stats(); st.Solves != 1 {
				t.Fatalf("steady progress forced a solve: %+v", st)
			}
			if err := sc.UpdateWeight("b1", 2); err != nil {
				t.Fatal(err)
			}
		}},
		{"stray work used up", []float64{10, 10, 5}, func(t *testing.T, sc *Scheduler) {
			if _, err := sc.ReportProgress("a1", []float64{0, 0, 5}); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		var scs []*Scheduler
		for _, fromScratch := range []bool{false, true} {
			sc, err := New(Config{SiteCapacity: []float64{2, 2, 3}, Policy: policy.AMFJCT, DisableIncremental: fromScratch})
			if err != nil {
				t.Fatal(err)
			}
			for _, sp := range []JobSpec{
				{ID: "a1", Demand: []float64{2, 2, 0}, Work: tc.a1},
				{ID: "a2", Demand: []float64{2, 1, 0}, Work: []float64{6, 3, 0}},
				{ID: "b1", Demand: []float64{0, 0, 3}},
				{ID: "b2", Demand: []float64{0, 0, 2}},
			} {
				if err := sc.AddJob(sp.ID, 1, sp.Demand, sp.Work); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := sc.Allocation(); err != nil {
				t.Fatal(err)
			}
			tc.steps(t, sc)
			scs = append(scs, sc)
		}
		got, err := scs[0].Allocation()
		if err != nil {
			t.Fatal(err)
		}
		want, err := scs[1].Allocation()
		if err != nil {
			t.Fatal(err)
		}
		for id, row := range want {
			for s, v := range row {
				if math.Float64bits(got[id][s]) != math.Float64bits(v) {
					t.Fatalf("%s: job %s site %d: %v served, %v from scratch", tc.name, id, s, got[id][s], v)
				}
			}
		}
	}
}

// TestIncrementalTelemetry pins the reuse counters surfaced in Stats: a
// single-job mutation on a multi-component set re-solves one component
// and reuses the rest.
func TestIncrementalTelemetry(t *testing.T) {
	caps := []float64{1, 1, 1, 1}
	sc, err := New(Config{SiteCapacity: caps, Policy: policy.AMF})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 4; b++ {
		demand := make([]float64, 4)
		demand[b] = 2
		if err := sc.AddJob(fmt.Sprintf("j%d", b), 1, demand, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sc.Allocation(); err != nil {
		t.Fatal(err)
	}
	st := sc.Stats()
	if st.LastComponents != 4 || st.LastResolved != 4 || st.LastReused != 0 {
		t.Fatalf("initial solve: %+v", st)
	}
	if err := sc.UpdateWeight("j2", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Allocation(); err != nil {
		t.Fatal(err)
	}
	st = sc.Stats()
	if st.LastResolved != 1 || st.LastReused != 3 {
		t.Fatalf("single-job mutation: resolved %d reused %d, want 1/3 (%+v)", st.LastResolved, st.LastReused, st)
	}
}

// TestRemovalTombstonesPreserveOrder checks the O(1)-amortized removal
// path: heavy removal (past the compaction threshold) must preserve the
// insertion order of the survivors and keep the controller fully
// functional for later adds, snapshots and solves.
func TestRemovalTombstonesPreserveOrder(t *testing.T) {
	sc := newTestScheduler(t, 5, 5)
	const n = 100
	for i := 0; i < n; i++ {
		if err := sc.AddJob(fmt.Sprintf("j%03d", i), 1, []float64{1, 0.5}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Remove every job not divisible by 3, in a scattered order, driving
	// holes past the compaction threshold.
	for _, start := range []int{1, 2} {
		for i := start; i < n; i += 3 {
			if err := sc.RemoveJob(fmt.Sprintf("j%03d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	in := sc.Instance()
	var want []string
	for i := 0; i < n; i += 3 {
		want = append(want, fmt.Sprintf("j%03d", i))
	}
	if len(in.JobName) != len(want) {
		t.Fatalf("%d survivors, want %d", len(in.JobName), len(want))
	}
	for i, id := range want {
		if in.JobName[i] != id {
			t.Fatalf("survivor order broken at %d: got %q want %q (order must stay insertion order)", i, in.JobName[i], id)
		}
	}
	if err := sc.AddJob("tail", 1, []float64{1, 1}, nil); err != nil {
		t.Fatal(err)
	}
	in = sc.Instance()
	if in.JobName[len(in.JobName)-1] != "tail" {
		t.Fatalf("new job not at the end: %v", in.JobName)
	}
	if _, err := sc.Allocation(); err != nil {
		t.Fatal(err)
	}
	snap := sc.Snapshot()
	if len(snap.Jobs) != len(want)+1 {
		t.Fatalf("snapshot has %d jobs, want %d", len(snap.Jobs), len(want)+1)
	}
	sc2 := newTestScheduler(t, 5, 5)
	if err := sc2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	in2 := sc2.Instance()
	for i := range in.JobName {
		if in2.JobName[i] != in.JobName[i] {
			t.Fatalf("restore broke order at %d: %q vs %q", i, in2.JobName[i], in.JobName[i])
		}
	}
}
