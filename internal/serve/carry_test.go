package serve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fairness"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/scheduler"
)

// denseGauges recomputes the three fairness gauges from a snapshot's full
// share rows — the n×m walk the engine used to do on every commit, kept
// here as the reference the per-component partials are checked against.
func denseGauges(snap *AllocSnapshot) (jain, mn, mx float64) {
	names := snap.Inst.JobName
	if len(names) == 0 {
		return 1, 0, 0
	}
	agg := make([]float64, len(names))
	for i, id := range names {
		for _, v := range snap.Shares[id] {
			agg[i] += v
		}
	}
	norm := fairness.NormalizedShares(agg, snap.Inst.Weight)
	return fairness.JainIndex(agg), slices.Min(norm), slices.Max(norm)
}

// churnDriver mutates an engine with a random stream over site blocks:
// adds (in-block, bridging two blocks, zero-demand), removals, weight
// updates, and progress that exhausts sites (splits) or completes jobs.
type churnDriver struct {
	t      *testing.T
	eng    *Engine
	rng    *rand.Rand
	blocks int
	spb    int
	live   []string
	next   int
}

func (d *churnDriver) add() {
	id := fmt.Sprintf("j%d", d.next)
	d.next++
	demand := make([]float64, d.blocks*d.spb)
	switch d.rng.Intn(8) {
	case 0: // zero demand: belongs to no component
	case 1: // bridges two blocks: merges their components
		demand[d.rng.Intn(d.blocks)*d.spb] = 0.1 + d.rng.Float64()
		demand[d.rng.Intn(d.blocks)*d.spb] = 0.1 + d.rng.Float64()
	default:
		s0 := d.rng.Intn(d.blocks) * d.spb
		demand[s0] = 0.1 + d.rng.Float64()*2
		for _, off := range d.rng.Perm(d.spb - 1)[:d.rng.Intn(d.spb)] {
			demand[s0+1+off] = 0.1 + d.rng.Float64()*2
		}
	}
	if err := d.eng.AddJob(context.Background(), id, 0.5+d.rng.Float64()*3.5, demand, nil); err != nil {
		d.t.Fatal(err)
	}
	d.live = append(d.live, id)
}

func (d *churnDriver) drop(i int) { d.live = append(d.live[:i], d.live[i+1:]...) }

func (d *churnDriver) step() {
	if len(d.live) == 0 {
		d.add()
		return
	}
	i := d.rng.Intn(len(d.live))
	id := d.live[i]
	ctx := context.Background()
	switch d.rng.Intn(6) {
	case 0, 1:
		d.add()
	case 2:
		if err := d.eng.RemoveJob(ctx, id); err != nil {
			d.t.Fatal(err)
		}
		d.drop(i)
	case 3:
		if err := d.eng.UpdateWeight(ctx, id, 0.5+d.rng.Float64()*3.5); err != nil {
			d.t.Fatal(err)
		}
	default:
		done := make([]float64, d.blocks*d.spb)
		for s := range done {
			done[s] = d.rng.Float64() * 1.5
		}
		completed, err := d.eng.ReportProgress(ctx, id, done)
		if err != nil {
			d.t.Fatal(err)
		}
		if completed {
			d.drop(i)
		}
	}
}

// TestFairnessGaugesMatchDenseReference is the property behind deleting
// the engine's dense gauge walk: over 200 random churn streams — AMF and
// Enhanced AMF (partials reduced per component) and PS-MMF (one partial at
// install) — the three fairness.* gauges equal a dense recomputation from
// the published rows to 1e-12 relative after EVERY commit, through merges,
// splits, zero-demand jobs, all-zero capacities (zero total allocation)
// and down to the empty job set.
func TestFairnessGaugesMatchDenseReference(t *testing.T) {
	const streams, commits = 200, 24
	rng := rand.New(rand.NewSource(2026))
	for stream := 0; stream < streams; stream++ {
		name := []string{"amf", "amf-enhanced", "psmmf"}[stream%3]
		pol, err := policy.ForName(name)
		if err != nil {
			t.Fatal(err)
		}
		blocks, spb := 2+rng.Intn(3), 3
		caps := make([]float64, blocks*spb)
		if stream%10 != 9 { // every tenth stream: nothing to allocate at all
			for s := range caps {
				caps[s] = 0.5 + rng.Float64()*4.5
			}
		}
		sc, err := scheduler.New(scheduler.Config{SiteCapacity: caps, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		eng, err := New(sc, Config{MaxBatch: 1, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		d := &churnDriver{t: t, eng: eng, rng: rng, blocks: blocks, spb: spb}
		check := func(tag string) {
			t.Helper()
			snap := eng.Current()
			wj, wmn, wmx := denseGauges(snap)
			g := reg.Snapshot().Gauges
			for _, p := range []struct {
				gauge string
				want  float64
			}{
				{"fairness.jain_index", wj},
				{"fairness.min_normalized_share", wmn},
				{"fairness.max_normalized_share", wmx},
			} {
				got := g[p.gauge]
				if diff := math.Abs(got - p.want); diff > 1e-12*math.Max(math.Abs(got), math.Abs(p.want)) {
					t.Fatalf("stream %d (%s) %s: %s = %v, dense reference %v (%d jobs)",
						stream, name, tag, p.gauge, got, p.want, len(snap.Inst.JobName))
				}
			}
		}
		for c := 0; c < commits; c++ {
			d.step()
			check(fmt.Sprintf("commit %d", c))
		}
		for len(d.live) > 0 { // drain: the last commits publish the empty set
			if err := eng.RemoveJob(context.Background(), d.live[0]); err != nil {
				t.Fatal(err)
			}
			d.drop(0)
			check(fmt.Sprintf("drain to %d", len(d.live)))
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// frozenSnapshot is a deep copy of everything a published snapshot lets a
// reader reach.
type frozenSnapshot struct {
	shares map[string][]float64
	inst   *core.Instance
}

func freeze(snap *AllocSnapshot) frozenSnapshot {
	f := frozenSnapshot{shares: make(map[string][]float64, len(snap.Shares)), inst: snap.Inst.Clone()}
	for id, row := range snap.Shares {
		f.shares[id] = slices.Clone(row)
	}
	return f
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// verify reports the first difference between the snapshot as it is now
// and as it was when frozen.
func (f frozenSnapshot) verify(snap *AllocSnapshot) error {
	if len(snap.Shares) != len(f.shares) {
		return fmt.Errorf("share map went from %d to %d entries", len(f.shares), len(snap.Shares))
	}
	for id, row := range f.shares {
		if !sameBits(snap.Shares[id], row) {
			return fmt.Errorf("share row of %q changed", id)
		}
	}
	in, was := snap.Inst, f.inst
	if !slices.Equal(in.JobName, was.JobName) || !sameBits(in.Weight, was.Weight) ||
		!sameBits(in.SiteCapacity, was.SiteCapacity) || in.ExternalWeight != was.ExternalWeight {
		return fmt.Errorf("shell names/weights/capacities changed")
	}
	if !slices.EqualFunc(in.Demand, was.Demand, sameBits) || !slices.EqualFunc(in.Work, was.Work, sameBits) {
		return fmt.Errorf("shell demand/work rows changed")
	}
	return nil
}

// TestSnapshotImmutableAcrossCommits: a reader holding snapshot v keeps
// seeing exactly v — its share map, its shell slices, every row, bit for
// bit — while the committer publishes 200 further mutations that patch
// weights and work rows copy-on-write, append jobs, remove jobs and
// compact the tombstoned order. Readers walk v concurrently the whole
// time, so under -race any write into memory v can reach is reported.
func TestSnapshotImmutableAcrossCommits(t *testing.T) {
	const blocks, spb = 8, 3
	rng := rand.New(rand.NewSource(7))
	caps := make([]float64, blocks*spb)
	for s := range caps {
		caps[s] = 0.5 + rng.Float64()*4.5
	}
	sc, err := scheduler.New(scheduler.Config{SiteCapacity: caps})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(sc, Config{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	d := &churnDriver{t: t, eng: eng, rng: rng, blocks: blocks, spb: spb}
	for i := 0; i < 80; i++ {
		d.add()
	}

	v := eng.Current()
	frozen := freeze(v)

	var stop atomic.Bool
	var wg sync.WaitGroup
	readErr := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if err := frozen.verify(v); err != nil {
					readErr <- err
					return
				}
			}
		}()
	}

	ctx := context.Background()
	for c := 0; c < 140; c++ {
		d.step()
	}
	// Remove most of what is left in one go: more than 32 tombstones and
	// more than half the order, so the controller compacts it.
	for len(d.live) > 10 {
		if err := eng.RemoveJob(ctx, d.live[0]); err != nil {
			t.Fatal(err)
		}
		d.drop(0)
	}
	for c := 0; c < 60; c++ {
		d.step()
	}
	stop.Store(true)
	wg.Wait()
	close(readErr)
	for err := range readErr {
		t.Fatalf("snapshot v%d changed under a reader: %v", v.Version, err)
	}
	if err := frozen.verify(v); err != nil {
		t.Fatalf("snapshot v%d changed after 200+ commits: %v", v.Version, err)
	}
	if cur := eng.Current(); cur.Version < v.Version+200 {
		t.Fatalf("only %d commits published after v", cur.Version-v.Version)
	}
	// And the engine's latest snapshot is exact for its own instance.
	cur := eng.Current()
	if len(cur.Shares) != len(cur.Inst.JobName) {
		t.Fatalf("latest snapshot has %d rows for %d jobs", len(cur.Shares), len(cur.Inst.JobName))
	}
	if err := cur.Allocation().CheckFeasible(1e-6 * cur.Inst.Scale()); err != nil {
		t.Fatal(err)
	}
}
