package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fairness"
)

// deltaTwin drives a second IncrementalSolver through SolveDelta with an
// explicit delta — what the scheduler hands it — next to one driven
// through the Solve wrapper's job-set diff, on the same revisions. It
// carries a share map forward the way the scheduler does: cloned, removed
// names dropped, only the returned records' rows overwritten.
type deltaTwin struct {
	wrap, delta *IncrementalSolver
	carried     map[string][]float64
}

// step solves one revision both ways and asserts they agree bit for bit:
// every row, the reuse accounting, and the carried map against the dense
// allocation. It also checks the update's fairness reduction against a
// dense recomputation over the wrapper's allocation.
func (tw *deltaTwin) step(t *testing.T, tag string, in *Instance, changed, removed []string) {
	t.Helper()
	dirty := map[string]bool{}
	for _, name := range changed {
		dirty[name] = true
	}
	want, err := tw.wrap.Solve(in, dirty)
	if err != nil {
		t.Fatalf("%s: wrapper: %v", tag, err)
	}
	idx := make(map[string]int, len(in.JobName))
	for i, name := range in.JobName {
		idx[name] = i
	}
	up, err := tw.delta.SolveDelta(in, Delta{
		Changed: changed,
		Removed: removed,
		Row: func(name string) int {
			if i, ok := idx[name]; ok {
				return i
			}
			return -1
		},
	})
	if err != nil {
		t.Fatalf("%s: delta: %v", tag, err)
	}

	next := make(map[string][]float64, len(tw.carried))
	if !up.Full {
		for name, row := range tw.carried {
			next[name] = row
		}
	}
	for _, name := range removed {
		delete(next, name)
	}
	for _, r := range up.Results {
		for name, row := range r.Shares {
			next[name] = row
		}
	}
	for _, name := range up.Zero {
		next[name] = tw.delta.Row(name)
	}
	tw.carried = next

	if len(next) != len(in.JobName) {
		t.Fatalf("%s: carried map holds %d jobs, instance %d", tag, len(next), len(in.JobName))
	}
	for i, name := range in.JobName {
		for _, got := range [][]float64{tw.delta.Row(name), next[name]} {
			if len(got) != len(want.Share[i]) {
				t.Fatalf("%s: job %s: row has %d entries, want %d", tag, name, len(got), len(want.Share[i]))
			}
			for s, v := range want.Share[i] {
				if math.Float64bits(got[s]) != math.Float64bits(v) {
					t.Fatalf("%s: job %s site %d: delta %v, wrapper %v", tag, name, s, got[s], v)
				}
			}
		}
	}
	ws, ds := tw.wrap.LastStats(), tw.delta.LastStats()
	if ws.Components != ds.Components || ws.Reused != ds.Reused || ws.Solved != ds.Solved ||
		ws.GlobalInvalidations != ds.GlobalInvalidations {
		t.Fatalf("%s: accounting differs: wrapper %+v, delta %+v", tag, ws, ds)
	}

	dense := fairness.PartialOf(want.Share, in.JobWeight)
	checkPartialClose(t, tag, up.Fairness, dense)
}

func checkPartialClose(t *testing.T, tag string, got, want fairness.Partial) {
	t.Helper()
	if got.Jobs != want.Jobs {
		t.Fatalf("%s: partial covers %d jobs, dense %d", tag, got.Jobs, want.Jobs)
	}
	gmn, gmx := got.MinMax()
	wmn, wmx := want.MinMax()
	for _, p := range [][2]float64{{got.Jain(), want.Jain()}, {gmn, wmn}, {gmx, wmx}, {got.Sum, want.Sum}, {got.SumSq, want.SumSq}} {
		if d := math.Abs(p[0] - p[1]); d > 1e-12*math.Max(math.Abs(p[0]), math.Abs(p[1])) {
			t.Fatalf("%s: reduced %v vs dense %v (partials %+v / %+v)", tag, p[0], p[1], got, want)
		}
	}
}

// TestSolveDeltaMatchesWrapper replays the incremental-equivalence stream
// shapes — adds, removals, weight and demand edits, bridges (merges),
// re-anchors (splits), zero-demand jobs, down to the empty job set — for
// AMF and Enhanced AMF, and asserts after every mutation that the delta
// entry and the Solve wrapper produce identical rows and accounting: they
// are one kernel, and the wrapper adds only the diff.
func TestSolveDeltaMatchesWrapper(t *testing.T) {
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
		tw := &deltaTwin{
			wrap:  &IncrementalSolver{Kernel: amfKernel(enhanced)},
			delta: &IncrementalSolver{Kernel: amfKernel(enhanced)},
		}
		// The first solve is fresh: the delta is ignored, so hand it none.
		tw.step(t, fmt.Sprintf("stream %d init", stream), h.instance(), nil, nil)

		for mut := 0; mut < mutations; mut++ {
			var changed, removed []string
			pick := func() int { return rng.Intn(len(h.name)) }
			switch op := rng.Intn(8); {
			case op == 0: // add
				changed = append(changed, h.addJob(rng, rng.Intn(blocks), sitesPerBlock))
			case op == 1 && len(h.name) > 0: // remove (possibly the last job)
				removed = append(removed, h.removeJob(pick()))
			case op == 2 && len(h.name) > 0: // weight change
				i := pick()
				h.wt[i] = 0.5 + rng.Float64()*3.5
				changed = append(changed, h.name[i])
			case op == 3 && len(h.name) > 0: // bridge into another block (merge)
				i := pick()
				h.dem[i][rng.Intn(blocks)*sitesPerBlock] = 0.1 + rng.Float64()
				changed = append(changed, h.name[i])
			case op == 4 && len(h.name) > 0: // re-anchor to one block (possible split)
				i := pick()
				row := make([]float64, len(h.caps))
				row[rng.Intn(blocks)*sitesPerBlock] = 0.1 + rng.Float64()*2
				h.dem[i] = row
				changed = append(changed, h.name[i])
			case op == 5 && len(h.name) > 0: // demand drops to nothing
				i := pick()
				h.dem[i] = make([]float64, len(h.caps))
				changed = append(changed, h.name[i])
			case op == 6 && len(h.name) > 0: // remove and re-add under the same name
				i := pick()
				name := h.removeJob(i)
				removed = append(removed, name)
				h.addJob(rng, rng.Intn(blocks), sitesPerBlock)
				h.next--
				h.name[len(h.name)-1] = name
				changed = append(changed, name)
			default:
				changed = append(changed, h.addJob(rng, rng.Intn(blocks), sitesPerBlock))
			}
			tw.step(t, fmt.Sprintf("stream %d mut %d", stream, mut), h.instance(), changed, removed)
		}
		// Drain to the empty job set.
		for len(h.name) > 0 {
			gone := h.removeJob(rng.Intn(len(h.name)))
			tw.step(t, fmt.Sprintf("stream %d drain %d", stream, len(h.name)), h.instance(), nil, []string{gone})
		}
		tw.step(t, fmt.Sprintf("stream %d empty", stream), h.instance(), nil, nil)
	}
}

// TestSolveDeltaRejectsWithoutSideEffects: a delta naming a job that is
// not in the instance, or carrying an invalid row, is refused before any
// carried state moves — the same delta, corrected, then solves as if the
// bad call never happened.
func TestSolveDeltaRejectsWithoutSideEffects(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const blocks, spb = 3, 3
	h := newIncHarness(rng, blocks, spb)
	for b := 0; b < blocks; b++ {
		h.addJob(rng, b, spb)
		h.addJob(rng, b, spb)
	}
	tw := &deltaTwin{wrap: &IncrementalSolver{}, delta: &IncrementalSolver{}}
	tw.step(t, "init", h.instance(), nil, nil)

	gone := h.removeJob(0)
	h.wt[0] = math.NaN()
	in := h.instance()
	row := func(name string) int {
		for i, n := range in.JobName {
			if n == name {
				return i
			}
		}
		return -1
	}
	if _, err := tw.delta.SolveDelta(in, Delta{Changed: []string{h.name[0]}, Removed: []string{gone}, Row: row}); err == nil {
		t.Fatal("NaN weight accepted")
	}
	if _, err := tw.delta.SolveDelta(in, Delta{Changed: []string{"nobody"}, Removed: []string{gone}, Row: row}); err == nil {
		t.Fatal("unknown changed job accepted")
	}
	h.wt[0] = 2
	tw.step(t, "after rejects", h.instance(), []string{h.name[0]}, []string{gone})
}

// TestSolveDeltaCapacityChangeIsFull: carried state is only valid for the
// capacities it was solved under, compared bit for bit. Moving one site's
// capacity by a single ulp between two SolveDelta calls must make the
// second a full solve, with rows equal to a fresh solver's.
func TestSolveDeltaCapacityChangeIsFull(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const blocks, spb = 3, 3
	h := newIncHarness(rng, blocks, spb)
	for b := 0; b < blocks; b++ {
		h.addJob(rng, b, spb)
		h.addJob(rng, b, spb)
	}
	delta := func(in *Instance) Delta {
		return Delta{Row: func(name string) int { return slices.Index(in.JobName, name) }}
	}
	for _, enhanced := range []bool{false, true} {
		caps := append([]float64(nil), h.caps...)
		x := &IncrementalSolver{Kernel: amfKernel(enhanced)}
		in := h.instance()
		if _, err := x.SolveDelta(in, delta(in)); err != nil {
			t.Fatal(err)
		}
		if up, err := x.SolveDelta(in, delta(in)); err != nil || up.Full {
			t.Fatalf("enhanced=%v: unchanged capacities: full=%v err=%v, want an incremental no-op", enhanced, up != nil && up.Full, err)
		}
		h.caps[1] = math.Nextafter(h.caps[1], math.Inf(1))
		in = h.instance()
		up, err := x.SolveDelta(in, delta(in))
		if err != nil {
			t.Fatal(err)
		}
		if !up.Full {
			t.Fatalf("enhanced=%v: capacity moved by one ulp but the update is not full", enhanced)
		}
		want, err := (&IncrementalSolver{Kernel: amfKernel(enhanced)}).Solve(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range in.JobName {
			for s, v := range want.Share[i] {
				if got := x.Row(name); math.Float64bits(got[s]) != math.Float64bits(v) {
					t.Fatalf("enhanced=%v: job %s site %d: %v after the capacity change, fresh solver %v", enhanced, name, s, got[s], v)
				}
			}
		}
		h.caps = caps
	}
}
