package cluster_test

import (
	"bufio"
	"context"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/wal"
)

// catalogueRow is one documented name of the DESIGN.md §13 table: the
// name as written and its anchored pattern.
type catalogueRow struct {
	name string
	re   *regexp.Regexp
}

// catalogue parses the DESIGN.md §13 metric table into one anchored
// pattern per documented name: a `<placeholder>` matches any suffix and
// `{a,b}` lists alternatives.
func catalogue(t *testing.T) []catalogueRow {
	t.Helper()
	f, err := os.Open("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	placeholder := regexp.MustCompile(`<[a-z]+>`)
	braces := regexp.MustCompile(`\{([^}]*)\}`)
	var pats []catalogueRow
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "| Registry name (JSON) |") {
			in = true
			continue
		}
		if !in || strings.HasPrefix(line, "|---") {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			break
		}
		cell := strings.Split(line, "|")[1]
		for i, tok := range strings.Split(cell, "`") {
			if i%2 == 0 { // outside backticks: separators and prose
				continue
			}
			re := regexp.QuoteMeta(tok)
			re = strings.ReplaceAll(re, `\{`, "{")
			re = strings.ReplaceAll(re, `\}`, "}")
			re = placeholder.ReplaceAllString(re, ".+")
			re = braces.ReplaceAllStringFunc(re, func(m string) string {
				return "(?:" + strings.ReplaceAll(m[1:len(m)-1], ",", "|") + ")"
			})
			pats = append(pats, catalogueRow{tok, regexp.MustCompile("^" + re + "$")})
		}
	}
	if len(pats) < 20 {
		t.Fatalf("parsed only %d catalogue names from DESIGN.md", len(pats))
	}
	return pats
}

// TestMetricCatalogue boots an engine-backed server and an in-process
// router, drives mutations and reads through both, then walks each live
// registry (GET /v1/metrics) and requires every name to match a row of
// the DESIGN.md §13 catalogue. The other direction holds for the engine:
// it registers all its metrics eagerly, so every documented engine.*
// name must match something the engine-backed server exports.
func TestMetricCatalogue(t *testing.T) {
	pats := catalogue(t)
	ctx := context.Background()
	caps := []float64{4, 4, 4, 4}
	pol := policy.EnhancedAMF

	log, _, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scheduler.New(scheduler.Config{SiteCapacity: caps, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	eng, err := serve.New(sc, serve.Config{Log: log, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	single := httptest.NewServer(api.NewBackendServer(eng, reg, caps, pol).Handler())
	t.Cleanup(single.Close)

	shards := newObservedShards(t, 2, caps, pol)
	router, err := cluster.NewRouter(shards, pol)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(cluster.NewHandler(router, nil, caps, pol))
	t.Cleanup(front.Close)

	s0, s1 := splitSites(t, len(caps))
	var engineNames []string
	for _, base := range []string{single.URL, front.URL} {
		cl := api.NewClient(base, nil)
		for id, site := range map[string]int{"a": s0, "b": s1} {
			if err := cl.AddJob(ctx, api.AddJobRequest{ID: id, Weight: 1, Demand: demandAt(len(caps), site)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.UpdateWeight(ctx, "a", 2); err != nil {
			t.Fatal(err)
		}
		done := make([]float64, len(caps))
		done[s1] = 0.1
		if _, err := cl.ReportProgress(ctx, "b", done); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Allocation(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Explain(ctx, "a"); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Shares(ctx, "ghost"); err == nil {
			t.Fatal("unknown job answered")
		}
		if _, err := cl.ScrapeMetrics(ctx); err != nil {
			t.Fatal(err)
		}
		m, err := cl.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for n := range m.Counters {
			names = append(names, n)
		}
		for n := range m.Gauges {
			names = append(names, n)
		}
		for n := range m.Histograms {
			names = append(names, n)
		}
		if len(names) == 0 {
			t.Fatalf("%s: empty registry", base)
		}
		if base == single.URL {
			engineNames = names
		}
	name:
		for _, n := range names {
			for _, p := range pats {
				if p.re.MatchString(n) {
					continue name
				}
			}
			t.Errorf("%s: metric %q has no row in the DESIGN.md §13 catalogue", base, n)
		}
	}
row:
	for _, p := range pats {
		if !strings.HasPrefix(p.name, "engine.") {
			continue
		}
		for _, n := range engineNames {
			if p.re.MatchString(n) {
				continue row
			}
		}
		t.Errorf("DESIGN.md §13 documents %q, which the engine does not export", p.name)
	}
}
