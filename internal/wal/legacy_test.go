package wal_test

import (
	"errors"
	"math"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/wal"
)

// Fixtures in the shape older builds wrote: the runtime config then also
// carried phase-reconciliation knobs, both in the snapshot ("phase") and
// in set_config patches.
const (
	legacyPhase  = `,"phase":{"hot_threshold":0.5,"max_batches":8,"max_interval_ms":10,"window":16}`
	legacyConfig = `{"hot_threshold":0.5,"window":16}`

	legacyState = `{"policy":"amf","jobs":[` +
		`{"id":"a","weight":1,"demand":[1,1,0],"remaining":[50,50,0]},` +
		`{"id":"b","weight":2,"demand":[0,1,1],"remaining":[0,40,40]}],` +
		`"solver":{"approx_epsilon":0,"approx_threshold":0}` + legacyPhase + `}`
)

var legacyRecords = []string{
	`[{"op":"add_job","id":"c","weight":1,"demand":[1,0,1],"work":[30,0,30]}]`,
	`[{"op":"set_config","config":` + legacyConfig + `}]`,
	`[{"op":"weight","id":"a","weight":3},{"op":"progress","id":"b","done":[0,5,5]}]`,
	`[{"op":"add_job","id":"d","weight":2,"demand":[0,2,0],"work":[0,20,0]},{"op":"remove_job","id":"c"}]`,
}

// writeLegacyDir lays down the phase fixture. strip drops the phase
// fields, giving the same log as a build without them would have written.
func writeLegacyDir(t *testing.T, dir string, strip bool) {
	t.Helper()
	fix := func(s string) string {
		if strip {
			s = strings.ReplaceAll(s, legacyPhase, "")
			s = strings.ReplaceAll(s, legacyConfig, "{}")
		}
		return s
	}
	records := make([]string, len(legacyRecords))
	for i, r := range legacyRecords {
		records[i] = fix(r)
	}
	writeDir(t, dir, fix(legacyState), records)
}

// writeDir lays down a snapshot plus a record tail, exactly as given.
func writeDir(t *testing.T, dir, state string, records []string) {
	t.Helper()
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Compact([]byte(state)); err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := l.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// recoverDir opens dir and replays it into a fresh controller. The log
// is returned open, for shipping.
func recoverDir(t *testing.T, dir string) (*scheduler.Scheduler, *wal.Log) {
	t.Helper()
	l, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	if rec.State == nil || len(rec.Records) != len(legacyRecords) {
		t.Fatalf("recovered state %t, %d records; want a snapshot and %d records",
			rec.State != nil, len(rec.Records), len(legacyRecords))
	}
	sc, err := scheduler.New(scheduler.Config{SiteCapacity: []float64{4, 4, 4}, Policy: policy.AMF})
	if err != nil {
		t.Fatal(err)
	}
	st, err := rec.Replay(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Restored || st.Failed != 0 {
		t.Fatalf("replay stats %+v", st)
	}
	return sc, l
}

func sameShares(t *testing.T, what string, got, want map[string][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d jobs, want %d", what, len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok || len(g) != len(w) {
			t.Fatalf("%s: job %q shares %v, want %v", what, id, g, w)
		}
		for s := range w {
			if math.Abs(g[s]-w[s]) > 1e-12 {
				t.Fatalf("%s: job %q site %d share %g, want %g", what, id, s, g[s], w[s])
			}
		}
	}
}

// TestLegacyPhaseStateRecovery checks that a WAL directory written while
// the runtime config carried phase-reconciliation knobs still recovers:
// wal.Open + Replay and a replica tailing the same log both reach the
// allocation the log yields with those fields removed.
func TestLegacyPhaseStateRecovery(t *testing.T) {
	legacyDir := filepath.Join(t.TempDir(), "legacy")
	cleanDir := filepath.Join(t.TempDir(), "clean")
	writeLegacyDir(t, legacyDir, false)
	writeLegacyDir(t, cleanDir, true)

	legacy, log := recoverDir(t, legacyDir)
	clean, _ := recoverDir(t, cleanDir)
	want, err := clean.Allocation()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 3 {
		t.Fatalf("reference allocation has %d jobs, want 3: %v", len(want), want)
	}
	got, err := legacy.Allocation()
	if err != nil {
		t.Fatal(err)
	}
	sameShares(t, "legacy replay", got, want)
	if legacy.RuntimeConfig() != clean.RuntimeConfig() {
		t.Fatalf("legacy runtime config %+v, want %+v", legacy.RuntimeConfig(), clean.RuntimeConfig())
	}

	rep := tailLog(t, log)
	head := log.Durable()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v := rep.View(); v != nil && !v.Cursor.Before(head) {
			sameShares(t, "replica", v.Shares, want)
			if n := rep.Metrics().Snapshot().Counters["replica.apply_failed"]; n != 0 {
				t.Fatalf("replica failed to apply %d legacy mutations", n)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never reached %v (last error: %s)", head, rep.LastError())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// tailLog starts a replica following log over WAL shipping.
func tailLog(t *testing.T, log *wal.Log) *cluster.Replica {
	t.Helper()
	srv := httptest.NewServer(wal.NewShipHandler(log))
	t.Cleanup(srv.Close)
	rep, err := cluster.NewReplica(cluster.ReplicaConfig{
		Source:       &wal.ShipClient{Base: srv.URL, HTTP: srv.Client()},
		SiteCapacity: []float64{4, 4, 4},
		Policy:       policy.AMF,
		Interval:     2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rep.Close() })
	return rep
}

// Fixtures for the features older builds served and this one retired:
// hierarchical queues and the drf and propfair policies. The clean state
// and tail use none of them; job IDs that spell a retired name must not
// trip the check. Each legacy fixture changes one part of the clean one.
const (
	retiredJobA  = `{"id":"a","weight":1,"demand":[1,1,0],"remaining":[50,50,0]}`
	retiredJobs  = `"jobs":[` + retiredJobA + `,{"id":"drf","weight":2,"demand":[0,1,1],"remaining":[0,40,40]}]`
	retiredState = `{"policy":"amf",` + retiredJobs + `,"solver":{"approx_epsilon":0,"approx_threshold":0}}`
)

var retiredRecords = []string{
	`[{"op":"add_job","id":"queue","weight":1,"demand":[1,0,1],"work":[30,0,30]}]`,
	`[{"op":"weight","id":"a","weight":3}]`,
	`[{"op":"add_job","id":"z","weight":2,"demand":[0,2,0],"work":[0,20,0]}]`,
}

type retiredFixture struct {
	name    string
	state   string
	records []string
}

// retiredFixtures returns one fixture per legacy shape.
func retiredFixtures() []retiredFixture {
	record := func(i int, r string) []string {
		rs := append([]string(nil), retiredRecords...)
		rs[i] = r
		return rs
	}
	queued := strings.Replace(retiredState, `"jobs"`, `"queues":{"research":2},"jobs"`, 1)
	return []retiredFixture{
		{"add_queue record", retiredState, record(1, `[{"op":"add_queue","id":"research","weight":2}]`)},
		{"add_job in a queue", retiredState, record(0, strings.Replace(retiredRecords[0], `"id":"queue",`, `"id":"queue","queue":"research",`, 1))},
		{"add_jobs in a queue", retiredState, record(1, `[{"op":"add_jobs","jobs":[{"id":"b","demand":[1,0,0]},{"id":"c","queue":"research","demand":[0,0,1]}]}]`)},
		{"restore record with queues", retiredState, record(1, `[{"op":"restore","state":`+queued+`}]`)},
		{"snapshot with queues", queued, retiredRecords},
		{"snapshot job in a queue", strings.Replace(retiredState, `{"id":"a",`, `{"id":"a","queue":"research",`, 1), retiredRecords},
		{"snapshot under drf", strings.Replace(retiredState, `"policy":"amf"`, `"policy":"drf"`, 1), retiredRecords},
		{"set_policy drf", retiredState, record(1, `[{"op":"set_policy","policy":"drf"}]`)},
		{"set_policy propfair", retiredState, record(1, `[{"op":"set_policy","policy":"propfair"}]`)},
		{"set_config propfair", retiredState, record(1, `[{"op":"set_config","config":{"policy":"propfair"}}]`)},
	}
}

// TestLegacyRetiredStateRecovery checks that state an older build wrote
// for a retired feature fails loudly: Replay returns ErrRetiredState
// without counting it as a failed mutation or replaying past it, and a
// replica tailing the log stops there with the error and publishes
// nothing past it. The clean fixture still recovers, on both paths, to
// the allocation of the same mutations applied directly.
func TestLegacyRetiredStateRecovery(t *testing.T) {
	ref, err := scheduler.New(scheduler.Config{SiteCapacity: []float64{4, 4, 4}, Policy: policy.AMF})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []error{
		ref.AddJob("a", 1, []float64{1, 1, 0}, []float64{50, 50, 0}),
		ref.AddJob("drf", 2, []float64{0, 1, 1}, []float64{0, 40, 40}),
		ref.AddJob("queue", 1, []float64{1, 0, 1}, []float64{30, 0, 30}),
		ref.UpdateWeight("a", 3),
		ref.AddJob("z", 2, []float64{0, 2, 0}, []float64{0, 20, 0}),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	want, err := ref.Allocation()
	if err != nil {
		t.Fatal(err)
	}

	cleanDir := filepath.Join(t.TempDir(), "clean")
	writeDir(t, cleanDir, retiredState, retiredRecords)
	l, rec, err := wal.Open(cleanDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	clean, err := scheduler.New(scheduler.Config{SiteCapacity: []float64{4, 4, 4}, Policy: policy.AMF})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := rec.Replay(clean); err != nil || !st.Restored || st.Failed != 0 || st.Mutations != len(retiredRecords) {
		t.Fatalf("clean replay = %+v, %v", st, err)
	}
	got, err := clean.Allocation()
	if err != nil {
		t.Fatal(err)
	}
	sameShares(t, "clean replay", got, want)
	rep := tailLog(t, l)
	deadline := time.Now().Add(10 * time.Second)
	for v := rep.View(); v == nil || v.Cursor.Before(l.Durable()); v = rep.View() {
		if time.Now().After(deadline) {
			t.Fatalf("replica never caught up with the clean log (last error: %s)", rep.LastError())
		}
		time.Sleep(2 * time.Millisecond)
	}
	sameShares(t, "clean replica", rep.View().Shares, want)

	for _, fx := range retiredFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			dir := t.TempDir()
			writeDir(t, dir, fx.state, fx.records)
			l, rec, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = l.Close() })
			sc, err := scheduler.New(scheduler.Config{SiteCapacity: []float64{4, 4, 4}, Policy: policy.AMF})
			if err != nil {
				t.Fatal(err)
			}
			st, err := rec.Replay(sc)
			if !errors.Is(err, wal.ErrRetiredState) {
				t.Fatalf("replay err = %v, want ErrRetiredState", err)
			}
			if st.Failed != 0 {
				t.Fatalf("retired state counted as %d failed mutations", st.Failed)
			}
			if _, err := sc.Shares("z"); !errors.Is(err, scheduler.ErrUnknownJob) {
				t.Fatalf("replay went past the retired state: job z recovered (%v)", err)
			}

			rep := tailLog(t, l)
			deadline := time.Now().Add(10 * time.Second)
			for !strings.Contains(rep.LastError(), wal.ErrRetiredState.Error()) {
				if time.Now().After(deadline) {
					t.Fatalf("replica never stopped at the retired state (last error: %q)", rep.LastError())
				}
				time.Sleep(2 * time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond) // ten poll intervals
			if v := rep.View(); v != nil && v.Shares["z"] != nil {
				t.Fatal("replica published past the retired state")
			}
			if n := rep.Metrics().Snapshot().Counters["replica.poll_errors"]; n != 1 {
				t.Fatalf("replica polled on after the retired state: %d poll errors", n)
			}
		})
	}
}
