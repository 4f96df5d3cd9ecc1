package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// incHarness maintains a mutable named instance organized in site blocks,
// so mutation streams keep the sparse multi-component shape the
// incremental solver targets while still exercising merges (a job can be
// given demand in a second block) and splits (that demand removed).
type incHarness struct {
	caps []float64
	name []string
	wt   []float64
	dem  [][]float64
	next int
}

func newIncHarness(rng *rand.Rand, blocks, sitesPerBlock int) *incHarness {
	m := blocks * sitesPerBlock
	h := &incHarness{caps: make([]float64, m)}
	for s := range h.caps {
		h.caps[s] = 0.5 + rng.Float64()*4.5
	}
	return h
}

func (h *incHarness) numBlocks(sitesPerBlock int) int { return len(h.caps) / sitesPerBlock }

// addJob adds a job demanding only within block b.
func (h *incHarness) addJob(rng *rand.Rand, b, sitesPerBlock int) string {
	name := fmt.Sprintf("j%d", h.next)
	h.next++
	row := make([]float64, len(h.caps))
	s0 := b * sitesPerBlock
	k := 1 + rng.Intn(sitesPerBlock)
	row[s0] = 0.1 + rng.Float64()*2 // anchor keeps the block connected
	for _, off := range rng.Perm(sitesPerBlock - 1)[:k-1] {
		row[s0+1+off] = 0.1 + rng.Float64()*2
	}
	h.name = append(h.name, name)
	h.wt = append(h.wt, 0.5+rng.Float64()*3.5)
	h.dem = append(h.dem, row)
	return name
}

func (h *incHarness) removeJob(i int) string {
	name := h.name[i]
	h.name = append(h.name[:i], h.name[i+1:]...)
	h.wt = append(h.wt[:i], h.wt[i+1:]...)
	h.dem = append(h.dem[:i], h.dem[i+1:]...)
	return name
}

// instance materializes the current revision with fresh backing arrays, so
// the incremental solver never observes in-place mutation of a previous
// revision's rows.
func (h *incHarness) instance() *Instance {
	in := &Instance{
		SiteCapacity: append([]float64(nil), h.caps...),
		Weight:       append([]float64(nil), h.wt...),
		Demand:       cloneMatrix(h.dem),
		JobName:      append([]string(nil), h.name...),
	}
	return in
}

func checkIncrementalMatches(t *testing.T, tag string, x *IncrementalSolver, in *Instance, dirty map[string]bool, enhanced bool) {
	t.Helper()
	got, err := x.Solve(in, dirty)
	if err != nil {
		t.Fatalf("%s: incremental: %v", tag, err)
	}
	ref := &Solver{}
	var want *Allocation
	if enhanced {
		want, err = ref.EnhancedAMF(in)
	} else {
		want, err = ref.AMF(in)
	}
	if err != nil {
		t.Fatalf("%s: reference: %v", tag, err)
	}
	tol := 1e-9 * in.Scale()
	for j := range want.Share {
		if d := math.Abs(got.Aggregate(j) - want.Aggregate(j)); d > tol {
			t.Fatalf("%s: job %d (%s) aggregate %g (incremental) vs %g (scratch), |diff| %g > %g",
				tag, j, in.JobName[j], got.Aggregate(j), want.Aggregate(j), d, tol)
		}
	}
	if err := got.CheckFeasible(1e-6 * in.Scale()); err != nil {
		t.Fatalf("%s: incremental allocation infeasible: %v", tag, err)
	}
	st := x.LastStats()
	if st.Reused+st.Solved != st.Components {
		t.Fatalf("%s: stats don't partition: reused %d + solved %d != components %d",
			tag, st.Reused, st.Solved, st.Components)
	}
}

// TestIncrementalMatchesFromScratch runs random mutation streams — demand
// edits, weight changes, job adds/removals, cross-block bridges and their
// removal — asserting after every mutation that the incremental solve
// matches a from-scratch solve of the same revision, for both AMF and
// Enhanced AMF.
func TestIncrementalMatchesFromScratch(t *testing.T) {
	const (
		streams       = 40
		mutations     = 25
		sitesPerBlock = 3
	)
	rng := rand.New(rand.NewSource(99))
	for stream := 0; stream < streams; stream++ {
		enhanced := stream%2 == 1
		blocks := 2 + rng.Intn(4)
		h := newIncHarness(rng, blocks, sitesPerBlock)
		for b := 0; b < blocks; b++ {
			for i := 0; i < 1+rng.Intn(4); i++ {
				h.addJob(rng, b, sitesPerBlock)
			}
		}
		x := &IncrementalSolver{Kernel: amfKernel(enhanced)}
		checkIncrementalMatches(t, fmt.Sprintf("stream %d init", stream), x, h.instance(), nil, enhanced)

		for mut := 0; mut < mutations; mut++ {
			dirty := map[string]bool{}
			switch op := rng.Intn(6); {
			case op == 0: // add
				dirty[h.addJob(rng, rng.Intn(blocks), sitesPerBlock)] = true
			case op == 1 && len(h.name) > 1: // remove
				h.removeJob(rng.Intn(len(h.name)))
			case op == 2 && len(h.name) > 0: // weight change
				i := rng.Intn(len(h.name))
				h.wt[i] = 0.5 + rng.Float64()*3.5
				dirty[h.name[i]] = true
			case op == 3 && len(h.name) > 0: // demand edit within the job's sites
				i := rng.Intn(len(h.name))
				for s, d := range h.dem[i] {
					if d > 0 {
						h.dem[i][s] = 0.1 + rng.Float64()*2
						break
					}
				}
				dirty[h.name[i]] = true
			case op == 4 && len(h.name) > 0: // bridge: demand in another block (merge)
				i := rng.Intn(len(h.name))
				b := rng.Intn(blocks)
				h.dem[i][b*sitesPerBlock] = 0.1 + rng.Float64()
				dirty[h.name[i]] = true
			case op == 5 && len(h.name) > 0: // re-anchor to one block (possible split)
				i := rng.Intn(len(h.name))
				row := make([]float64, len(h.caps))
				b := rng.Intn(blocks)
				row[b*sitesPerBlock] = 0.1 + rng.Float64()*2
				h.dem[i] = row
				dirty[h.name[i]] = true
			default:
				dirty[h.addJob(rng, rng.Intn(blocks), sitesPerBlock)] = true
			}
			checkIncrementalMatches(t, fmt.Sprintf("stream %d mut %d", stream, mut), x, h.instance(), dirty, enhanced)
		}
	}
}

// TestIncrementalCarryAndCache pins the reuse accounting: an untouched
// revision splices every component, a single-job mutation re-solves
// exactly one component, and so does reverting that mutation — there is
// no result cache to bring the old record back.
func TestIncrementalCarryAndCache(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const blocks, spb = 6, 3
	h := newIncHarness(rng, blocks, spb)
	for b := 0; b < blocks; b++ {
		h.addJob(rng, b, spb)
		h.addJob(rng, b, spb)
	}
	x := &IncrementalSolver{}
	if _, err := x.Solve(h.instance(), nil); err != nil {
		t.Fatal(err)
	}
	st := x.LastStats()
	if st.Components != blocks || st.Solved != blocks {
		t.Fatalf("initial solve: components %d solved %d, want %d/%d", st.Components, st.Solved, blocks, blocks)
	}

	if _, err := x.Solve(h.instance(), nil); err != nil {
		t.Fatal(err)
	}
	st = x.LastStats()
	if st.Reused != blocks || st.Solved != 0 {
		t.Fatalf("clean re-solve: reused %d solved %d, want %d/0", st.Reused, st.Solved, blocks)
	}

	old := h.dem[0][0]
	h.dem[0][0] = old + 1
	if _, err := x.Solve(h.instance(), map[string]bool{h.name[0]: true}); err != nil {
		t.Fatal(err)
	}
	st = x.LastStats()
	if st.Solved != 1 || st.Reused != blocks-1 {
		t.Fatalf("single-job mutation: solved %d reused %d, want 1/%d", st.Solved, st.Reused, blocks-1)
	}

	h.dem[0][0] = old
	if _, err := x.Solve(h.instance(), map[string]bool{h.name[0]: true}); err != nil {
		t.Fatal(err)
	}
	st = x.LastStats()
	if st.Solved != 1 || st.Reused != blocks-1 {
		t.Fatalf("reverted mutation: solved %d reused %d, want 1/%d", st.Solved, st.Reused, blocks-1)
	}
}

// TestIncrementalEnhancedSlackReuse pins the Enhanced-AMF reuse rule.
// Floors depend on the global weight sum W, so a weight change in ONE
// component moves every component's floors. A component whose record was
// published without floors and still meets them keeps it, in either
// direction of W, while the rows stay bit-identical to a from-scratch
// solve; a component that crosses its floor is re-solved, above the floors
// while they bind and plain once they no longer do.
func TestIncrementalEnhancedSlackReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const blocks, spb = 5, 3
	h := newIncHarness(rng, blocks, spb)
	for b := 0; b < blocks; b++ {
		for i := 0; i < 3; i++ {
			h.addJob(rng, b, spb)
		}
	}
	x := &IncrementalSolver{Kernel: KernelEnhanced}
	checkEnhancedRowIdentical(t, "init", x, h.instance(), nil)
	for id, c := range x.comps {
		if c.result.floorBound {
			t.Fatalf("component %d is floor-bound; the reuse half of this test needs every component slack", id)
		}
	}

	// Job 0's weight doubles (W up), then returns (W down): each time only
	// its own component re-solves.
	w0 := h.wt[0]
	for step, w := range []float64{2 * w0, w0} {
		h.wt[0] = w
		tag := fmt.Sprintf("weight step %d", step)
		checkEnhancedRowIdentical(t, tag, x, h.instance(), map[string]bool{h.name[0]: true})
		st := x.LastStats()
		if st.GlobalInvalidations != int64(step+1) {
			t.Fatalf("%s: GlobalInvalidations = %d, want %d", tag, st.GlobalInvalidations, step+1)
		}
		if st.Reused != blocks-1 || st.Solved != 1 {
			t.Fatalf("%s: reused %d solved %d, want %d/1: slack components must carry across a weight-sum change",
				tag, st.Reused, st.Solved, blocks-1)
		}
	}
	// An external weight up, then down (a cluster broadcast): no job
	// changed, so every component is reused.
	for step, ext := range []float64{3, 0.5} {
		in := h.instance()
		in.ExternalWeight = ext
		tag := fmt.Sprintf("external step %d", step)
		checkEnhancedRowIdentical(t, tag, x, in, nil)
		if st := x.LastStats(); st.Reused != blocks || st.Solved != 0 {
			t.Fatalf("%s: reused %d solved %d, want %d/0", tag, st.Reused, st.Solved, blocks)
		}
	}

	// sharingIncentiveInstance's job X misses its floor under plain AMF
	// while W = 4 (its three jobs and the lone one); with an external
	// weight of 20 its floor drops below its plain aggregate. A lone job on
	// a site of its own is slack at any W.
	in := sharingIncentiveInstance()
	in.SiteCapacity = append(in.SiteCapacity, 4)
	for j := range in.Demand {
		in.Demand[j] = append(in.Demand[j], 0)
	}
	in.Demand = append(in.Demand, []float64{0, 0, 1})
	in.JobName = []string{"X", "Y", "Z", "lone"}
	xs := &IncrementalSolver{Kernel: KernelEnhanced}
	for step, tc := range []struct {
		ext        float64
		floorBound bool
		solved     int
	}{
		{0, true, 2},   // first solve: X's component binds, lone is slack
		{20, false, 1}, // floor-bound record re-solves and comes back plain
		{0, true, 1},   // X's plain record misses its new floor
		{20, false, 1},
		{25, false, 0}, // W up again: X's plain record still meets its floor
		{19, false, 0}, // W down, floors still below the plain aggregates
	} {
		in.ExternalWeight = tc.ext
		tag := fmt.Sprintf("crossing step %d (external %g)", step, tc.ext)
		checkEnhancedRowIdentical(t, tag, xs, in, nil)
		st := xs.LastStats()
		if st.Solved != tc.solved || st.Reused != 2-tc.solved {
			t.Fatalf("%s: solved %d reused %d, want %d/%d", tag, st.Solved, st.Reused, tc.solved, 2-tc.solved)
		}
		if got := xs.jobs["X"].result.floorBound; got != tc.floorBound {
			t.Fatalf("%s: X's record floor-bound %v, want %v", tag, got, tc.floorBound)
		}
		if xs.jobs["lone"].result.floorBound {
			t.Fatalf("%s: the lone job's record is floor-bound", tag)
		}
	}

	// Plain AMF has no floors: a weight change must NOT invalidate other
	// components.
	h2 := newIncHarness(rand.New(rand.NewSource(17)), blocks, spb)
	rng2 := rand.New(rand.NewSource(18))
	for b := 0; b < blocks; b++ {
		for i := 0; i < 3; i++ {
			h2.addJob(rng2, b, spb)
		}
	}
	xp := &IncrementalSolver{}
	if _, err := xp.Solve(h2.instance(), nil); err != nil {
		t.Fatal(err)
	}
	h2.wt[0] *= 2
	if _, err := xp.Solve(h2.instance(), map[string]bool{h2.name[0]: true}); err != nil {
		t.Fatal(err)
	}
	if st := xp.LastStats(); st.Reused != blocks-1 || st.GlobalInvalidations != 0 {
		t.Fatalf("plain AMF weight change: reused %d globalInval %d, want %d/0", st.Reused, st.GlobalInvalidations, blocks-1)
	}
}

// checkEnhancedRowIdentical runs checkIncrementalMatches under Enhanced AMF
// and also requires the incremental rows to equal a from-scratch solve's
// bit for bit.
func checkEnhancedRowIdentical(t *testing.T, tag string, x *IncrementalSolver, in *Instance, dirty map[string]bool) {
	t.Helper()
	checkIncrementalMatches(t, tag, x, in, dirty, true)
	want, err := NewSolver().EnhancedAMF(in)
	if err != nil {
		t.Fatalf("%s: from scratch: %v", tag, err)
	}
	for j, name := range in.JobName {
		got := x.Row(name)
		for s, v := range want.Share[j] {
			if math.Float64bits(got[s]) != math.Float64bits(v) {
				t.Fatalf("%s: job %s site %d: incremental %v, from scratch %v", tag, name, s, got[s], v)
			}
		}
	}
}

// TestIncrementalSplitMerge walks a component through a merge (a job
// bridges two blocks), verifies the merged component re-solves while
// bystanders are reused, then removes the bridge and verifies that just
// the two split halves re-solve.
func TestIncrementalSplitMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const blocks, spb = 4, 3
	h := newIncHarness(rng, blocks, spb)
	for b := 0; b < blocks; b++ {
		h.addJob(rng, b, spb)
		h.addJob(rng, b, spb)
	}
	x := &IncrementalSolver{}
	checkIncrementalMatches(t, "init", x, h.instance(), nil, false)

	// Bridge blocks 0 and 1 through job 0.
	saved := h.dem[0][spb]
	h.dem[0][spb] = 0.7
	checkIncrementalMatches(t, "merge", x, h.instance(), map[string]bool{h.name[0]: true}, false)
	st := x.LastStats()
	if st.Components != blocks-1 {
		t.Fatalf("after merge: %d components, want %d", st.Components, blocks-1)
	}
	if st.Reused != blocks-2 || st.Solved != 1 {
		t.Fatalf("after merge: reused %d solved %d, want %d/1", st.Reused, st.Solved, blocks-2)
	}

	// Remove the bridge: blocks 0 and 1 split apart again, each half a new
	// component to solve.
	h.dem[0][spb] = saved
	checkIncrementalMatches(t, "split", x, h.instance(), map[string]bool{h.name[0]: true}, false)
	st = x.LastStats()
	if st.Components != blocks {
		t.Fatalf("after split: %d components, want %d", st.Components, blocks)
	}
	if st.Solved != 2 || st.Reused != blocks-2 {
		t.Fatalf("after split: solved %d reused %d, want 2/%d", st.Solved, st.Reused, blocks-2)
	}
}

// TestIncrementalRemovalAndZeroDemand covers job removal (the component
// re-solves without the member) and a job whose demand drops to all-zero
// (it leaves its component and gets a zero share row).
func TestIncrementalRemovalAndZeroDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const blocks, spb = 3, 3
	h := newIncHarness(rng, blocks, spb)
	for b := 0; b < blocks; b++ {
		h.addJob(rng, b, spb)
		h.addJob(rng, b, spb)
		h.addJob(rng, b, spb)
	}
	x := &IncrementalSolver{}
	checkIncrementalMatches(t, "init", x, h.instance(), nil, false)

	h.removeJob(1)
	checkIncrementalMatches(t, "removal", x, h.instance(), nil, false)
	st := x.LastStats()
	if st.Solved != 1 || st.Reused != blocks-1 {
		t.Fatalf("removal: solved %d reused %d, want 1/%d", st.Solved, st.Reused, blocks-1)
	}

	// Zero out a job's demand: it must drop out of its component and
	// receive a zero row.
	zeroed := h.name[0]
	h.dem[0] = make([]float64, len(h.caps))
	in := h.instance()
	a, err := x.Solve(in, map[string]bool{zeroed: true})
	if err != nil {
		t.Fatal(err)
	}
	if agg := a.Aggregate(0); agg != 0 {
		t.Fatalf("zero-demand job aggregate = %g, want 0", agg)
	}
	checkIncrementalMatches(t, "zero-demand", x, h.instance(), map[string]bool{zeroed: true}, false)
}
