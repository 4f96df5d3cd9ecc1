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
	if st.Reused+st.CacheHits+st.Solved != st.Components {
		t.Fatalf("%s: stats don't partition: reused %d + hits %d + solved %d != components %d",
			tag, st.Reused, st.CacheHits, st.Solved, st.Components)
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
// revision splices every component without hashing, a single-job mutation
// re-solves exactly one component, and reverting that mutation hits the
// fingerprint cache instead of solving.
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
	if st.Reused != blocks || st.Solved != 0 || st.CacheHits != 0 {
		t.Fatalf("clean re-solve: reused %d hits %d solved %d, want %d/0/0", st.Reused, st.CacheHits, st.Solved, blocks)
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

	h.dem[0][0] = old // revert: the component's fingerprint round-trips
	if _, err := x.Solve(h.instance(), map[string]bool{h.name[0]: true}); err != nil {
		t.Fatal(err)
	}
	st = x.LastStats()
	if st.CacheHits != 1 || st.Solved != 0 || st.Reused != blocks-1 {
		t.Fatalf("reverted mutation: hits %d solved %d reused %d, want 1/0/%d", st.CacheHits, st.Solved, st.Reused, blocks-1)
	}
}

// TestEnhancedWeightChangeInvalidatesAllComponents pins the global
// invalidation rule: Enhanced-AMF floors depend on the global weight sum,
// so a weight change in ONE component must push every component through
// fingerprint validation — none may be carried as untouched — and the
// resulting shares must match a from-scratch Enhanced solve.
func TestEnhancedWeightChangeInvalidatesAllComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const blocks, spb = 5, 3
	h := newIncHarness(rng, blocks, spb)
	for b := 0; b < blocks; b++ {
		for i := 0; i < 3; i++ {
			h.addJob(rng, b, spb)
		}
	}
	x := &IncrementalSolver{Kernel: KernelEnhanced}
	if _, err := x.Solve(h.instance(), nil); err != nil {
		t.Fatal(err)
	}

	h.wt[0] *= 2
	checkIncrementalMatches(t, "weight change", x, h.instance(), map[string]bool{h.name[0]: true}, true)
	st := x.LastStats()
	if st.GlobalInvalidations != 1 {
		t.Fatalf("GlobalInvalidations = %d, want 1", st.GlobalInvalidations)
	}
	if st.Reused != 0 {
		t.Fatalf("weight change under Enhanced AMF carried %d components untouched; floors moved globally, want 0", st.Reused)
	}
	// The floors embed in every fingerprint, so untouched components whose
	// floors moved must re-solve, not cache-hit.
	if st.Solved != blocks {
		t.Fatalf("Solved = %d, want all %d components re-solved", st.Solved, blocks)
	}

	// Plain AMF has no floors: the same mutation shape must NOT invalidate
	// other components.
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

// TestIncrementalSplitMerge walks a component through a merge (a job
// bridges two blocks), verifies the merged component re-solves while
// bystanders are reused, then removes the bridge and verifies the split
// components come back from the fingerprint cache.
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

	// Remove the bridge: blocks 0 and 1 split apart again, and both halves
	// were solved before the merge — the cache must resurrect them.
	h.dem[0][spb] = saved
	checkIncrementalMatches(t, "split", x, h.instance(), map[string]bool{h.name[0]: true}, false)
	st = x.LastStats()
	if st.Components != blocks {
		t.Fatalf("after split: %d components, want %d", st.Components, blocks)
	}
	if st.CacheHits != 2 || st.Solved != 0 || st.Reused != blocks-2 {
		t.Fatalf("after split: hits %d solved %d reused %d, want 2/0/%d", st.CacheHits, st.Solved, st.Reused, blocks-2)
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
