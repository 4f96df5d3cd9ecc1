package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/scheduler"
	"repro/internal/serve"
)

// mapBackend serves a share map set by the test. Only the read methods
// below are called; the embedded nil Backend panics on anything else.
type mapBackend struct {
	Backend
	mu      sync.Mutex
	alloc   map[string][]float64
	version uint64
	policy  string
	// fresh returns newly allocated rows on every call, as HTTPShard's
	// decoded rows are.
	fresh bool
}

func (b *mapBackend) set(alloc map[string][]float64, version uint64, policy string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.alloc, b.version, b.policy = alloc, version, policy
}

func (b *mapBackend) Allocation(ctx context.Context) (map[string][]float64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.fresh {
		return b.alloc, nil
	}
	out := make(map[string][]float64, len(b.alloc))
	for id, row := range b.alloc {
		if row != nil {
			row = append([]float64{}, row...)
		}
		out[id] = row
	}
	return out, nil
}

func (b *mapBackend) Shares(ctx context.Context, id string) ([]float64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	row, ok := b.alloc[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", scheduler.ErrUnknownJob, id)
	}
	return row, nil
}

func (b *mapBackend) SnapshotVersion() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.version
}

func (b *mapBackend) PolicyName() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.policy
}

// referenceBody is the GET /v1/allocation body as encoding/json writes it.
func referenceBody(t testing.TB, alloc map[string][]float64, version uint64, policy string) []byte {
	t.Helper()
	resp := AllocationResponse{Jobs: make(map[string]SharesResponse, len(alloc)), Version: version, Policy: policy}
	for id, row := range alloc {
		resp.Jobs[id] = sharesResponse(id, row)
	}
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func getAllocation(t testing.TB, h http.Handler) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/allocation", nil))
	return rec
}

// TestAllocationBodyMatchesEncodingJSON drives the cached encoder through
// random copy-on-write publishes — rows replaced, IDs removed and
// re-added, version and policy changed — and holds every body to the
// bytes encoding/json writes for the same map, version and policy.
func TestAllocationBodyMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(45, 1))
	specials := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e-7, -1e-7, 1.5e-10,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 1e300, 0.1, -2.5, 123456.789,
	}
	value := func() float64 {
		switch rng.IntN(3) {
		case 0:
			return specials[rng.IntN(len(specials))]
		case 1:
			return 0
		default:
			return (rng.Float64() - 0.25) * math.Pow(10, float64(rng.IntN(60)-30))
		}
	}
	newRow := func() []float64 {
		switch rng.IntN(10) {
		case 0:
			return nil
		case 1:
			return []float64{}
		}
		r := make([]float64, 1+rng.IntN(8))
		for i := range r {
			r[i] = value()
		}
		return r
	}
	ids := []string{
		"", "a", "b", `<&>"`, "tab\there", "nl\n\r", "\x01\b\f", "\x7f", "é", "\xff\xfe",
		"a b", " ", `back\slash`, "日本", "zz",
	}
	for i := 0; i < 30; i++ {
		ids = append(ids, "job-"+strconv.Itoa(i))
	}

	be := &mapBackend{alloc: map[string][]float64{}}
	srv := NewBackendServer(be, nil, nil, nil)
	version, pol := uint64(0), ""
	check := func(step int) {
		t.Helper()
		rec := getAllocation(t, srv.Handler())
		if rec.Code != http.StatusOK {
			t.Fatalf("step %d: status %d: %s", step, rec.Code, rec.Body)
		}
		if want := referenceBody(t, be.alloc, version, pol); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("step %d: body differs from encoding/json\n got %q\nwant %q", step, rec.Body, want)
		}
		if got := rec.Header().Get("Content-Type"); got != "application/json" {
			t.Fatalf("step %d: Content-Type %q", step, got)
		}
		if len(srv.alloc.byID) != len(be.alloc) {
			t.Fatalf("step %d: cache holds %d IDs, map %d", step, len(srv.alloc.byID), len(be.alloc))
		}
	}
	check(-1) // empty map, version 0, empty policy

	for step := 0; step < 400; step++ {
		next := maps.Clone(be.alloc) // copy-on-write, as the engine publishes
		switch rng.IntN(5) {
		case 0: // re-solve a few rows
			for k := rng.IntN(4); k >= 0; k-- {
				id := ids[rng.IntN(len(ids))]
				if _, ok := next[id]; ok {
					next[id] = newRow()
				}
			}
		case 1: // add (or re-add) jobs
			for k := rng.IntN(3); k >= 0; k-- {
				next[ids[rng.IntN(len(ids))]] = newRow()
			}
		case 2: // remove jobs
			for k := rng.IntN(3); k >= 0; k-- {
				delete(next, ids[rng.IntN(len(ids))])
			}
		case 3: // a new version or policy over the same rows
			version = []uint64{0, uint64(step), math.MaxUint64}[rng.IntN(3)]
			pol = []string{"", "amf", "<p& >"}[rng.IntN(3)]
		}
		be.set(next, version, pol)
		check(step)
	}

	// An ID removed and then re-added with a new row.
	next := maps.Clone(be.alloc)
	next["a"] = []float64{1, 2}
	be.set(next, version, pol)
	check(400)
	next = maps.Clone(next)
	delete(next, "a")
	be.set(next, version, pol)
	check(401)
	next = maps.Clone(next)
	next["a"] = []float64{3, 1e-9}
	be.set(next, version, pol)
	check(402)
}

// TestAllocationBodyConcurrentReads races two full readers against a
// writer on a served engine: every body decodes into a capacity-feasible
// allocation, and once the writer stops the body is encoding/json's
// encoding of the engine's published shares.
func TestAllocationBodyConcurrentReads(t *testing.T) {
	caps := []float64{4, 4, 4, 4, 4, 4, 4, 4}
	sc, err := scheduler.New(scheduler.Config{SiteCapacity: caps, Policy: policy.AMF})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	eng, err := serve.New(sc, serve.Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	srv := NewBackendServer(eng, reg, caps, policy.AMF)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	demand := func(id int) []float64 {
		d := make([]float64, len(caps))
		d[id%len(caps)] = 1 + float64(id%3)
		d[(id+3)%len(caps)] = 0.5 + float64(id%5)
		return d
	}
	ctx := context.Background()
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewPCG(7, 7))
		live := map[int]bool{}
		for step := 0; step < 300; step++ {
			id := rng.IntN(40)
			name := "j" + strconv.Itoa(id)
			var err error
			switch {
			case !live[id]:
				err = eng.AddJob(ctx, name, 1, demand(id), nil)
				live[id] = true
			case rng.IntN(3) == 0:
				err = eng.RemoveJob(ctx, name)
				delete(live, id)
			default:
				err = eng.UpdateWeight(ctx, name, 0.5+rng.Float64()*3)
			}
			if err != nil {
				errs <- fmt.Errorf("writer step %d: %w", step, err)
				return
			}
		}
	}()
	reader := func() {
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-done:
				if n > 0 {
					return
				}
			default:
			}
			resp, err := ts.Client().Get(ts.URL + "/v1/allocation")
			if err != nil {
				errs <- err
				return
			}
			var got AllocationResponse
			err = json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			if err != nil {
				errs <- fmt.Errorf("read %d: decode: %w", n, err)
				return
			}
			in := &core.Instance{SiteCapacity: caps}
			a := &core.Allocation{Inst: in}
			for name, sh := range got.Jobs {
				id, _ := strconv.Atoi(name[1:])
				in.Demand = append(in.Demand, demand(id))
				in.JobName = append(in.JobName, name)
				a.Share = append(a.Share, sh.Shares)
			}
			if err := a.CheckFeasible(1e-9); err != nil {
				errs <- fmt.Errorf("read %d (version %d): %w", n, got.Version, err)
				return
			}
		}
	}
	wg.Add(2)
	go reader()
	go reader()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/allocation")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceBody(t, eng.Current().Shares, eng.SnapshotVersion(), eng.PolicyName()); !bytes.Equal(body, want) {
		t.Fatalf("quiesced body differs from encoding/json\n got %q\nwant %q", body, want)
	}
}

// TestAllocationBodyBackendRows covers the two row-identity extremes: a
// backend that decodes fresh rows on every call (every read re-encodes
// every row, readers racing on the rebuild) and one that returns the same
// map twice (the second read encodes nothing).
func TestAllocationBodyBackendRows(t *testing.T) {
	alloc := map[string][]float64{"a": {1, 0, 0.25}, "b": {0, 3e-7, 0}, "<c>": nil, "d": {}}
	want := referenceBody(t, alloc, 9, "amf")

	fresh := &mapBackend{alloc: alloc, version: 9, policy: "amf", fresh: true}
	srv := NewBackendServer(fresh, nil, nil, nil)
	var wg sync.WaitGroup
	bodies := make([][][]byte, 2)
	for r := range bodies {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				bodies[r] = append(bodies[r], getAllocation(t, srv.Handler()).Body.Bytes())
			}
		}(r)
	}
	wg.Wait()
	for r := range bodies {
		for i, b := range bodies[r] {
			if !bytes.Equal(b, want) {
				t.Fatalf("fresh rows: reader %d read %d: got %q, want %q", r, i, b, want)
			}
		}
	}
	if len(srv.alloc.byID) != len(alloc) {
		t.Fatalf("fresh rows: cache holds %d IDs, want %d", len(srv.alloc.byID), len(alloc))
	}

	same := &mapBackend{alloc: alloc, version: 9, policy: "amf"}
	srv = NewBackendServer(same, nil, nil, nil)
	first := getAllocation(t, srv.Handler()).Body.Bytes()
	encoded := maps.Clone(srv.alloc.byID)
	second := getAllocation(t, srv.Handler()).Body.Bytes()
	if !bytes.Equal(first, want) || !bytes.Equal(second, want) {
		t.Fatalf("same map: got %q then %q, want %q", first, second, want)
	}
	for id, f := range srv.alloc.byID {
		if encoded[id] != f {
			t.Fatalf("same map: row %q re-encoded on the second read", id)
		}
	}
}

// TestWriteJSONNonFinite: a NaN or Inf in a response answers 500 with the
// internal error body — on a WriteJSON route and on GET /v1/allocation —
// never a 200 with an empty or NaN-bearing body. A later read after the
// row is fixed is served normally.
func TestWriteJSONNonFinite(t *testing.T) {
	be := &mapBackend{alloc: map[string][]float64{"a": {1, 2}, "nan": {math.NaN()}}, version: 3}
	srv := NewBackendServer(be, nil, nil, nil)
	for _, path := range []string{"/v1/jobs/nan/shares", "/v1/allocation"} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		var er errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Fatalf("%s: body %q does not decode: %v", path, rec.Body, err)
		}
		if rec.Code != http.StatusInternalServerError || er.Code != CodeInternal || er.Error == "" {
			t.Fatalf("%s: got %d %+v, want 500 %q", path, rec.Code, er, CodeInternal)
		}
	}

	// An aggregate that overflows is refused too.
	be.set(map[string][]float64{"a": {1, 2}, "big": {math.MaxFloat64, math.MaxFloat64}}, 3, "")
	if rec := getAllocation(t, srv.Handler()); rec.Code != http.StatusInternalServerError {
		t.Fatalf("overflowing aggregate: status %d, body %q", rec.Code, rec.Body)
	}

	fixed := map[string][]float64{"a": {1, 2}, "nan": {0.5}}
	be.set(fixed, 4, "amf")
	rec := getAllocation(t, srv.Handler())
	if want := referenceBody(t, fixed, 4, "amf"); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("after the fix: %d %q, want 200 %q", rec.Code, rec.Body, want)
	}

	// A failed read leaves nothing stale behind: rows re-solved in the
	// failing map and kept by the next one are served as the next map
	// holds them, not as the read before the failure encoded them.
	base := map[string][]float64{"bad": {1}}
	for j := 0; j < 20; j++ {
		base["j"+strconv.Itoa(j)] = []float64{float64(j)}
	}
	be.set(base, 5, "amf")
	getAllocation(t, srv.Handler())
	for round := 0; round < 5; round++ {
		failing := maps.Clone(base)
		for id := range failing {
			failing[id] = []float64{float64(round), 1}
		}
		failing["bad"] = []float64{math.Inf(-1)}
		be.set(failing, 5, "amf")
		if rec := getAllocation(t, srv.Handler()); rec.Code != http.StatusInternalServerError {
			t.Fatalf("round %d: status %d with an Inf row", round, rec.Code)
		}
		next := maps.Clone(failing)
		next["bad"] = base["bad"]
		be.set(next, 6, "amf")
		rec := getAllocation(t, srv.Handler())
		if want := referenceBody(t, next, 6, "amf"); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("round %d after a failed read: got %q, want %q", round, rec.Body, want)
		}
		base = next
	}
}

// discardWriter is a ResponseWriter that drops the body.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w discardWriter) WriteHeader(int)             {}

// BenchmarkAllocationBody measures GET /v1/allocation's handler on the
// benchmark's dense shape (sparse rows: a few non-zero sites each), with
// the encoding/json encode it replaced beside each case. "clean" reads an
// unchanged map, "new16" re-solves 16 rows between reads and "newall"
// replaces every row.
func BenchmarkAllocationBody(b *testing.B) {
	for _, c := range []struct {
		jobs, sites, changed int
		name                 string
	}{
		{1024, 256, 0, "clean"},
		{1024, 256, 16, "new16"},
		{1024, 256, 1024, "newall"},
		{512, 128, 512, "newall"},
	} {
		rng := rand.New(rand.NewPCG(uint64(c.jobs), uint64(c.changed)))
		ids := make([]string, c.jobs)
		rows := [2]map[string][]float64{{}, {}} // two copies of every row
		for j := range ids {
			ids[j] = "job-" + strconv.Itoa(j)
			row := make([]float64, c.sites)
			for k := 0; k < 4; k++ {
				row[rng.IntN(c.sites)] = rng.Float64() * 4
			}
			rows[0][ids[j]], rows[1][ids[j]] = row, append([]float64(nil), row...)
		}
		alloc := maps.Clone(rows[0])
		prefix := fmt.Sprintf("%dx%d/%s/", c.jobs, c.sites, c.name)
		// step re-solves c.changed rows by swapping in the other copy.
		next, flip := 0, 1
		step := func() {
			for k := 0; k < c.changed; k++ {
				id := ids[next]
				alloc[id] = rows[flip][id]
				if next++; next == len(ids) {
					next, flip = 0, 1-flip
				}
			}
		}

		b.Run(prefix+"cache", func(b *testing.B) {
			srv := NewBackendServer(&mapBackend{alloc: alloc, version: 7, policy: "amf"}, nil, nil, nil)
			h := srv.Handler()
			w := discardWriter{h: http.Header{}}
			req := httptest.NewRequest(http.MethodGet, "/v1/allocation", nil)
			h.ServeHTTP(w, req)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
				h.ServeHTTP(w, req)
			}
		})
		b.Run(prefix+"encoding_json", func(b *testing.B) {
			w := discardWriter{h: http.Header{}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				step()
				resp := AllocationResponse{Jobs: make(map[string]SharesResponse, len(alloc)), Version: 7, Policy: "amf"}
				for id, row := range alloc {
					resp.Jobs[id] = sharesResponse(id, row)
				}
				if err := json.NewEncoder(w).Encode(resp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
