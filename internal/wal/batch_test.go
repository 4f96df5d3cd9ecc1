package wal

import (
	"testing"

	"repro/internal/scheduler"
)

func newScheduler(t *testing.T) *scheduler.Scheduler {
	t.Helper()
	sc, err := scheduler.New(scheduler.Config{SiteCapacity: []float64{4, 4, 8}})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestMutationApplyAllOps(t *testing.T) {
	sc := newScheduler(t)
	muts := []Mutation{
		{Op: OpAddJob, ID: "a", Weight: 1, Demand: []float64{1, 1, 0}},
		{Op: OpAddJob, ID: "q", Weight: 1, Demand: []float64{0, 1, 1}},
		{Op: OpAddJobs, Jobs: []scheduler.JobSpec{
			{ID: "b1", Demand: []float64{1, 0, 0}},
			{ID: "b2", Demand: []float64{0, 0, 1}},
		}},
		{Op: OpWeight, ID: "a", Weight: 3},
		{Op: OpProgress, ID: "a", Done: []float64{0.5, 0, 0}},
		{Op: OpRemoveJob, ID: "b1"},
	}
	for i, m := range muts {
		if err := m.Apply(sc); err != nil {
			t.Fatalf("mutation %d (%s): %v", i, m.Op, err)
		}
	}
	if st := sc.Stats(); st.Jobs != 3 {
		t.Fatalf("jobs after replay = %d, want 3", st.Jobs)
	}
}

func TestMutationApplyUnknownOp(t *testing.T) {
	sc := newScheduler(t)
	if err := (Mutation{Op: "bogus"}).Apply(sc); err == nil {
		t.Fatal("unknown op applied cleanly")
	}
	if err := (Mutation{Op: OpRestore}).Apply(sc); err == nil {
		t.Fatal("restore without state applied cleanly")
	}
}

func TestBatchCodecRoundTrip(t *testing.T) {
	in := []Mutation{
		{Op: OpAddJob, ID: "a", Weight: 2, Demand: []float64{1, 0, 1}, Work: []float64{5, 0, 5}},
		{Op: OpProgress, ID: "a", Done: []float64{1, 0, 0}},
	}
	payload, err := EncodeBatch(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].ID != "a" || out[0].Weight != 2 || out[1].Op != OpProgress {
		t.Fatalf("round trip = %+v", out)
	}
	if _, err := DecodeBatch([]byte("{not json")); err == nil {
		t.Fatal("garbage batch decoded")
	}
}

func TestRecoveryReplayEndToEnd(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Base state folded into a snapshot, then a mutation tail.
	base := newScheduler(t)
	if err := base.AddJob("base", 1, []float64{1, 1, 1}, nil); err != nil {
		t.Fatal(err)
	}
	state, err := EncodeState(base.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(state); err != nil {
		t.Fatal(err)
	}
	tail := [][]Mutation{
		{{Op: OpAddJob, ID: "t1", Weight: 1, Demand: []float64{2, 0, 0}}},
		{{Op: OpAddJob, ID: "t2", Weight: 1, Demand: []float64{0, 2, 0}},
			{Op: OpWeight, ID: "base", Weight: 4}},
	}
	for _, batch := range tail {
		payload, err := EncodeBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc := newScheduler(t)
	st, err := rec.Replay(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Restored || st.Batches != 2 || st.Mutations != 3 || st.Failed != 0 {
		t.Fatalf("replay stats = %+v", st)
	}
	if got := sc.Stats().Jobs; got != 3 {
		t.Fatalf("jobs after replay = %d, want 3", got)
	}
	snap := sc.Snapshot()
	for _, j := range snap.Jobs {
		if j.ID == "base" && j.Weight != 4 {
			t.Fatalf("base weight = %g, want the tail's update to 4", j.Weight)
		}
	}
}
