package wal_test

import (
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

// writeLegacyDir lays down a snapshot plus a record tail, exactly as
// given. strip drops the phase fields, giving the same log as a build
// without them would have written.
func writeLegacyDir(t *testing.T, dir string, strip bool) {
	t.Helper()
	fix := func(s string) string {
		if strip {
			s = strings.ReplaceAll(s, legacyPhase, "")
			s = strings.ReplaceAll(s, legacyConfig, "{}")
		}
		return s
	}
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Compact([]byte(fix(legacyState))); err != nil {
		t.Fatal(err)
	}
	for _, r := range legacyRecords {
		if err := l.Append([]byte(fix(r))); err != nil {
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
