package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// drawStream renders n requests of one stream, and the due times of one
// connection's first open-loop phase, as text: byte-identical text means
// identical stream and schedule.
func drawStream(w workloadSpec, seed uint64, conn, n int) string {
	g := newOpGen(w, baseInstance(w), seed, conn)
	clock := newArrivals(w, seed, conn%connections, 1, w.RateHz)
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d %+v\n", clock.next(), g.next())
	}
	return b.String()
}

func TestStreamIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		w = w.smoke()
		a, b := drawStream(w, 7, 0, 500), drawStream(w, 7, 0, 500)
		if a != b {
			t.Errorf("%s: same seed gave different streams", w.Name)
		}
		if a == drawStream(w, 8, 0, 500) {
			t.Errorf("%s: different seeds gave the same stream", w.Name)
		}
		if a == drawStream(w, 7, 1, 500) {
			t.Errorf("%s: two streams are the same", w.Name)
		}
	}
}

// However the clients' streams interleave, every mutation must
// apply: that is what makes fail_ratio exactly 0.
func TestStreamsInterleaveWithoutFailures(t *testing.T) {
	for _, w := range workloads {
		w = w.smoke()
		base := baseInstance(w)
		sc, err := newScheduler(w, base, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.AddJobs(baseSpecs(base)); err != nil {
			t.Fatal(err)
		}
		var gens [clients]*opGen
		var mutated [clients]map[string]bool
		for k := range gens {
			gens[k], mutated[k] = newOpGen(w, base, 3, k), map[string]bool{}
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 2000; i++ {
			k := rng.Intn(clients)
			o := gens[k].next()
			if o.Kind.class() != classWrite {
				continue
			}
			mutated[k][o.Job] = true
			if err := o.apply(sc); err != nil {
				t.Fatalf("%s: op %d of stream %d failed: %v", w.Name, i, k, err)
			}
		}
		owner := map[string]int{}
		for k, jobs := range mutated {
			for job := range jobs {
				if o, taken := owner[job]; taken {
					t.Errorf("%s: job %s mutated by streams %d and %d", w.Name, job, o, k)
				}
				owner[job] = k
			}
		}
	}
}

func TestPercentileAndSampleRules(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(v, 0.5); got != 5.5 {
		t.Errorf("median = %g, want 5.5", got)
	}
	if got := percentile(v, 1); got != 10 {
		t.Errorf("p100 = %g, want 10", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample = %g, want 0", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
	for _, c := range [][2]int{{5000, 15}, {750, 15}, {160, 3}, {49, 1}, {0, 1}} {
		if got := windowCount(c[0]); got != c[1] {
			t.Errorf("windowCount(%d) = %d, want %d", c[0], got, c[1])
		}
	}
	// Three windows whose medians are 1, 2 and 30: one stalled window does
	// not move the metric.
	samples := []sample{{0, 1}, {1, 1}, {10, 2}, {11, 2}, {20, 30}, {21, 30}}
	if got := windowed(samples, 30, 3, 0.5); got != 2 {
		t.Errorf("windowed median = %g, want 2", got)
	}
}

// The expected open-loop sample counts README.md tabulates, at
// BENCHMARK.json's run_seconds: rate × mix × phase, whatever a run got.
func TestExpectedSamples(t *testing.T) {
	b := readBenchmarkJSON(t)
	open := runConfig{Seconds: float64(b.RunSeconds)}.openDur() * rounds
	want := map[string][numClasses]int{
		"churn_sparse":     {2400, 480, 120},
		"giant_component":  {675, 135, 90},
		"read_mostly":      {90, 8730, 180},
		"cluster_enhanced": {675, 360, 90},
	}
	for _, w := range workloads {
		for c := opClass(0); c < numClasses; c++ {
			if got := w.expected(c, open); got != want[w.Name][c] {
				t.Errorf("%s %s: %d samples expected, README.md says %d", w.Name, classNames[c], got, want[w.Name][c])
			}
		}
	}
}

// slo_miss_ratio is the median window's miss share: a stall that fills
// one window with late requests does not move it, a failed request counts
// as a miss, and requests late in most windows do move it.
func TestSLOMissRatio(t *testing.T) {
	w := workloadSpec{WriteLimitMS: 25, ReadLimitMS: 20, AllocLimitMS: 250}
	dur := time.Duration(maxWindows) * time.Second
	var r phaseResult
	for i := 0; i < maxWindows; i++ {
		at := int64(i) * int64(time.Second)
		for j := 0; j < 10; j++ {
			ms := 1.0
			if i == 3 {
				ms = 400 // the stalled window
			}
			r.Lat[classWrite] = append(r.Lat[classWrite], sample{at, ms})
		}
	}
	r.FailAt = []int64{5 * int64(time.Second)}
	if got := sloMissRatio(w, &r, dur); got != 0 {
		t.Errorf("one stalled window and one failure: miss ratio %g, want 0", got)
	}
	for i := 0; i < maxWindows; i++ {
		r.Lat[classPoint] = append(r.Lat[classPoint], sample{int64(i) * int64(time.Second), 21})
	}
	if got, want := sloMissRatio(w, &r, dur), 1.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("one late read in every window: miss ratio %g, want %g", got, want)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "client", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "api", StartNS: 10, EndNS: 90},
		{ID: 2, Parent: 1, Name: "cluster.allocation", StartNS: 20, EndNS: 80},
		// A fan-out: overlapping children count once, and a child that
		// outlives its parent is clipped to it.
		{ID: 3, Parent: 2, Name: "serve.allocation", StartNS: 30, EndNS: 60},
		{ID: 4, Parent: 2, Name: "serve.allocation", StartNS: 40, EndNS: 95},
	}
	want := []int64{20, 20, 10, 30, 55}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json and spec.go must name the same workloads and metrics.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) || !reflect.DeepEqual(b.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v vs %s / %s", i, b.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
		if sum := w.Write + w.Point + w.Full; math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: op mix sums to %g", w.Name, sum)
		}
		if m := w.Writes; math.Abs(m.Weight+m.Progress+m.Add+m.Remove-1) > 1e-9 || m.Add != m.Remove {
			t.Errorf("%s: write mix %+v", w.Name, m)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if got := b.EndToEnd[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end %d: %+v vs %+v", i, got, m)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := b.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: %+v vs %+v", i, got, m)
		}
	}
}

// The traced run of every workload, on tiny instances: the allocation it
// serves is correct, every catalogued per-layer metric is measured and
// printed, the layers' self times add up to the client's span, and router
// spans appear only where there is a router.
func TestSmokeTracedAllWorkloads(t *testing.T) {
	p := paths{out: t.TempDir()}
	for _, w := range workloads {
		res, err := runTraced(context.Background(), p, w.smoke(), runConfig{Seed: 5, Seconds: 1.2, Smoke: true})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%t failed=%d attempted=%d %s", w.Name, res.Correct, res.Failed, res.Attempted, res.Problem)
		}
		if err := report(p, res, perLayer); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics measured, %d catalogued", w.Name, len(res.Metrics), len(perLayer))
		}
		// A server-side span may close just after the client has its
		// reply, so the sum can exceed the client spans by a sliver.
		if got := res.Info["self_sum_over_client"]; got < 0.95 || got > 1.05 {
			t.Errorf("%s: layer self times are %.3f of the client spans", w.Name, got)
		}
		data, err := os.ReadFile(p.out + "/trace-" + w.Name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var trace struct{ Spans []span }
		if err := json.Unmarshal(data, &trace); err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, s := range trace.Spans {
			layer, _, _ := strings.Cut(s.Name, ".")
			seen[layer] = true
		}
		if !seen["client"] || !seen["api"] || !seen["serve"] {
			t.Errorf("%s: trace lacks a layer: %v", w.Name, seen)
		}
		if seen["cluster"] != (w.Shards > 1) {
			t.Errorf("%s: cluster spans present = %t", w.Name, seen["cluster"])
		}
		if (res.Metrics["wal.bytes_per_mutation"] > 0) != w.WAL {
			t.Errorf("%s: wal.bytes_per_mutation = %g with WAL %t", w.Name, res.Metrics["wal.bytes_per_mutation"], w.WAL)
		}
	}
}
