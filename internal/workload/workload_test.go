package workload

import (
	"math"
	"testing"

	"repro/internal/randx"
)

func TestZipfWeightsUniform(t *testing.T) {
	w := ZipfWeights(4, 0)
	for _, v := range w {
		if math.Abs(v-0.25) > 1e-12 {
			t.Fatalf("alpha=0 weights %v", w)
		}
	}
}

func TestZipfWeightsSkewed(t *testing.T) {
	w := ZipfWeights(3, 1)
	// proportional to 1, 1/2, 1/3 -> 6/11, 3/11, 2/11.
	want := []float64{6.0 / 11, 3.0 / 11, 2.0 / 11}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 1e-12 {
			t.Fatalf("weights %v, want %v", w, want)
		}
	}
}

func TestZipfWeightsMonotone(t *testing.T) {
	w := ZipfWeights(10, 1.5)
	var sum float64
	for i := range w {
		sum += w[i]
		if i > 0 && w[i] > w[i-1]+1e-15 {
			t.Fatalf("weights not decreasing: %v", w)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum %g", sum)
	}
}

func TestZipfWeightsEmpty(t *testing.T) {
	if w := ZipfWeights(0, 1); w != nil {
		t.Fatalf("expected nil, got %v", w)
	}
}

func TestSampleIndexRespectsWeights(t *testing.T) {
	rng := randx.Stream(1, "test")
	w := []float64{0.9, 0.1}
	counts := [2]int{}
	for i := 0; i < 10000; i++ {
		counts[SampleIndex(rng, w)]++
	}
	if counts[0] < 8500 || counts[0] > 9500 {
		t.Fatalf("heavy index drawn %d/10000 times, want ~9000", counts[0])
	}
}

func TestSampleIndexZeroWeights(t *testing.T) {
	rng := randx.Stream(2, "test")
	w := []float64{0, 0, 0}
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		idx := SampleIndex(rng, w)
		if idx < 0 || idx >= 3 {
			t.Fatalf("index out of range: %d", idx)
		}
		seen[idx] = true
	}
	if len(seen) < 2 {
		t.Fatal("zero weights should fall back to uniform")
	}
}

func TestSampleDistinct(t *testing.T) {
	rng := randx.Stream(3, "test")
	w := ZipfWeights(6, 1)
	for trial := 0; trial < 50; trial++ {
		idx := SampleDistinct(rng, w, 4)
		if len(idx) != 4 {
			t.Fatalf("got %d indices", len(idx))
		}
		seen := map[int]bool{}
		for _, i := range idx {
			if seen[i] {
				t.Fatalf("duplicate index in %v", idx)
			}
			seen[i] = true
		}
	}
	if got := SampleDistinct(rng, w, 99); len(got) != 6 {
		t.Fatalf("k clamp failed: %d", len(got))
	}
}

func TestGenerateShapeAndDeterminism(t *testing.T) {
	cfg := Config{NumJobs: 20, NumSites: 5, SiteCapacity: 2, Skew: 1, Seed: 42}
	in1 := Generate(cfg)
	in2 := Generate(cfg)
	if in1.NumJobs() != 20 || in1.NumSites() != 5 {
		t.Fatalf("dims %dx%d", in1.NumJobs(), in1.NumSites())
	}
	if err := in1.Validate(); err != nil {
		t.Fatal(err)
	}
	for j := range in1.Demand {
		for s := range in1.Demand[j] {
			if in1.Demand[j][s] != in2.Demand[j][s] {
				t.Fatal("same seed produced different instances")
			}
		}
	}
	in3 := Generate(Config{NumJobs: 20, NumSites: 5, SiteCapacity: 2, Skew: 1, Seed: 43})
	same := true
	for j := range in1.Demand {
		for s := range in1.Demand[j] {
			if in1.Demand[j][s] != in3.Demand[j][s] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical instances")
	}
}

func TestGenerateSkewConcentratesDemand(t *testing.T) {
	agg := func(skew float64) float64 {
		in := Generate(Config{NumJobs: 200, NumSites: 10, Skew: skew, Seed: 7})
		// Fraction of total demand on the top site.
		site := make([]float64, in.NumSites())
		var total float64
		for j := range in.Demand {
			for s, d := range in.Demand[j] {
				site[s] += d
				total += d
			}
		}
		max := 0.0
		for _, v := range site {
			max = math.Max(max, v)
		}
		return max / total
	}
	low, high := agg(0), agg(2)
	if high < low*2 {
		t.Fatalf("skew 2 top-site share %g not much above uniform %g", high, low)
	}
}

func TestGenerateSitesPerJobBounds(t *testing.T) {
	in := Generate(Config{
		NumJobs: 50, NumSites: 8, Skew: 0.5, Seed: 11,
		SitesPerJobMin: 2, SitesPerJobMax: 3,
	})
	for j := range in.Demand {
		k := 0
		for _, d := range in.Demand[j] {
			if d > 0 {
				k++
			}
		}
		if k < 2 || k > 3 {
			t.Fatalf("job %d touches %d sites, want 2..3", j, k)
		}
	}
}

func TestGenerateWeighted(t *testing.T) {
	in := Generate(Config{NumJobs: 10, NumSites: 3, Weighted: true, Seed: 5})
	if in.Weight == nil {
		t.Fatal("weights not generated")
	}
	for _, w := range in.Weight {
		if w < 0.5 || w > 4 {
			t.Fatalf("weight %g out of range", w)
		}
	}
}

func TestGenerateHeteroCapacity(t *testing.T) {
	in := Generate(Config{NumJobs: 5, NumSites: 30, HeteroCapacity: true, SiteCapacity: 4, Seed: 13})
	mn, mx := math.Inf(1), 0.0
	for _, c := range in.SiteCapacity {
		mn = math.Min(mn, c)
		mx = math.Max(mx, c)
		if c < 1 || c > 16 {
			t.Fatalf("capacity %g outside [cap/4, 4cap]", c)
		}
	}
	if mx/mn < 2 {
		t.Fatalf("capacities suspiciously homogeneous: [%g, %g]", mn, mx)
	}
}

func TestSizeDistMeans(t *testing.T) {
	rng := randx.Stream(17, "sizes")
	for _, d := range []SizeDist{SizeUniform, SizeExponential, SizeBoundedPareto} {
		var sum float64
		const draws = 20000
		for i := 0; i < draws; i++ {
			v := d.sample(rng, 2)
			if v < 0 {
				t.Fatalf("%v produced negative size %g", d, v)
			}
			sum += v
		}
		mean := sum / draws
		if mean < 1.5 || mean > 2.5 {
			t.Fatalf("%v empirical mean %g, want ~2", d, mean)
		}
	}
}

func TestSizeDistString(t *testing.T) {
	if SizeUniform.String() != "uniform" || SizeBoundedPareto.String() != "bounded-pareto" {
		t.Fatal("size dist names")
	}
	if SizeDist(42).String() == "" {
		t.Fatal("unknown dist must render")
	}
}

func TestGenerateStreamArrivalsSorted(t *testing.T) {
	jobs := GenerateStream(StreamConfig{NumSites: 4, Lambda: 2, NumJobs: 100, Seed: 19})
	if len(jobs) != 100 {
		t.Fatalf("got %d jobs", len(jobs))
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Arrival < jobs[i-1].Arrival {
			t.Fatal("arrivals not sorted")
		}
	}
	for _, j := range jobs {
		if len(j.Tasks) == 0 {
			t.Fatalf("job %d has no tasks", j.ID)
		}
		for _, task := range j.Tasks {
			if task.Site < 0 || task.Site >= 4 {
				t.Fatalf("task site %d out of range", task.Site)
			}
			if task.Duration < 0 {
				t.Fatalf("negative duration %g", task.Duration)
			}
		}
	}
}

func TestGenerateStreamBatchMode(t *testing.T) {
	jobs := GenerateStream(StreamConfig{NumSites: 2, Lambda: 0, NumJobs: 10, Seed: 23})
	for _, j := range jobs {
		if j.Arrival != 0 {
			t.Fatalf("batch job arrived at %g", j.Arrival)
		}
	}
}

func TestJobHelpers(t *testing.T) {
	j := Job{Tasks: []Task{{Site: 0, Duration: 2}, {Site: 0, Duration: 1}, {Site: 2, Duration: 3}}}
	w := j.WorkBySite(3)
	if w[0] != 3 || w[1] != 0 || w[2] != 3 {
		t.Fatalf("work by site %v", w)
	}
	c := j.TasksBySite(3)
	if c[0] != 2 || c[1] != 0 || c[2] != 1 {
		t.Fatalf("tasks by site %v", c)
	}
	if j.TotalWork() != 6 {
		t.Fatalf("total work %g", j.TotalWork())
	}
}

func TestStreamRates(t *testing.T) {
	cfg := StreamConfig{NumSites: 4, TasksPerJobMean: 5, TaskDurationMean: 2}
	lambda := LambdaForLoad(cfg, 8, 0.8)
	cfg.Lambda = lambda
	if rho := OfferedLoad(cfg, 8); math.Abs(rho-0.8) > 1e-12 {
		t.Fatalf("round trip load %g", rho)
	}
}

func TestStreamTaskCountMean(t *testing.T) {
	jobs := GenerateStream(StreamConfig{
		NumSites: 3, NumJobs: 3000, TasksPerJobMean: 8, Seed: 29,
	})
	var sum float64
	for _, j := range jobs {
		sum += float64(len(j.Tasks))
	}
	mean := sum / float64(len(jobs))
	if mean < 7 || mean > 9 {
		t.Fatalf("task count mean %g, want ~8", mean)
	}
}

func TestScenarios(t *testing.T) {
	for _, sc := range Scenarios() {
		cfg, err := sc.Configure(50, 10, 1)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		in := Generate(cfg)
		if err := in.Validate(); err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
	}
	if _, err := Scenario("bogus").Configure(1, 1, 1); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestScenarioOversubscription(t *testing.T) {
	cfg, _ := ScenarioUniform.Configure(100, 10, 3)
	in := Generate(cfg)
	var demand float64
	for j := range in.Demand {
		demand += in.TotalDemand(j)
	}
	if demand < in.TotalCapacity()*1.5 {
		t.Fatalf("scenario undersubscribed: demand %g vs capacity %g",
			demand, in.TotalCapacity())
	}
}

func TestDiurnalArrivalsModulateRate(t *testing.T) {
	// With strong modulation, arrivals cluster in the high-rate half of
	// each cycle: significantly more than half land where sin > 0.
	cfg := StreamConfig{
		NumSites: 2, Lambda: 5, NumJobs: 4000,
		DiurnalAmplitude: 0.9, DiurnalPeriod: 10, Seed: 101,
	}
	jobs := GenerateStream(cfg)
	high := 0
	for _, j := range jobs {
		phase := math.Mod(j.Arrival, 10) / 10
		if phase < 0.5 { // sin(2*pi*phase) > 0 for phase in (0, 0.5)
			high++
		}
	}
	frac := float64(high) / float64(len(jobs))
	if frac < 0.6 {
		t.Fatalf("high-rate half holds %.2f of arrivals, want > 0.6", frac)
	}
	// Arrivals remain sorted and positive.
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Arrival < jobs[i-1].Arrival {
			t.Fatal("diurnal arrivals not sorted")
		}
	}
}

func TestDiurnalZeroAmplitudeMatchesPoisson(t *testing.T) {
	base := StreamConfig{NumSites: 2, Lambda: 2, NumJobs: 50, Seed: 103}
	diurnal := base
	diurnal.DiurnalAmplitude = 0
	a := GenerateStream(base)
	b := GenerateStream(diurnal)
	for i := range a {
		if a[i].Arrival != b[i].Arrival {
			t.Fatal("zero amplitude changed arrivals")
		}
	}
}

func TestDiurnalAmplitudeClamped(t *testing.T) {
	cfg := StreamConfig{
		NumSites: 1, Lambda: 1, NumJobs: 10,
		DiurnalAmplitude: 5, // clamped below 1
		Seed:             107,
	}
	jobs := GenerateStream(cfg)
	if len(jobs) != 10 {
		t.Fatalf("got %d jobs", len(jobs))
	}
	for _, j := range jobs {
		if math.IsNaN(j.Arrival) || j.Arrival < 0 {
			t.Fatalf("bad arrival %g", j.Arrival)
		}
	}
}

// TestZipfWeightsZeroSkewUniform pins the skew=0 degenerate case: every
// rank gets exactly 1/m — the uniform churn regime.
func TestZipfWeightsZeroSkewUniform(t *testing.T) {
	for _, m := range []int{1, 2, 7, 64} {
		w := ZipfWeights(m, 0)
		for i, v := range w {
			if math.Abs(v-1/float64(m)) > 1e-15 {
				t.Fatalf("ZipfWeights(%d, 0)[%d] = %g, want %g", m, i, v, 1/float64(m))
			}
		}
	}
}

// TestChurnConfigEdges pins ChurnConfig's defaulting rules.
func TestChurnConfigEdges(t *testing.T) {
	// Zero config: everything defaults and generation succeeds.
	ch := GenerateChurn(ChurnConfig{})
	if len(ch.Ops) != 1024 {
		t.Fatalf("default mutation count %d, want 1024", len(ch.Ops))
	}
	// Explicit tiny stream.
	ch = GenerateChurn(ChurnConfig{Mutations: 1})
	if len(ch.Ops) != 1 {
		t.Fatalf("mutations=1 produced %d ops", len(ch.Ops))
	}
	// ZipfSkew=0 must behave as uniform (the documented default), not
	// panic or degenerate: all components get some traffic over a long
	// stream.
	ch = GenerateChurn(ChurnConfig{Mutations: 4096, ZipfSkew: 0, Seed: 5})
	comps := map[int]bool{}
	for _, op := range ch.Ops {
		comps[op.Component] = true
	}
	if len(comps) != 16 { // SparseConfig default component count
		t.Fatalf("uniform churn hit %d components, want all 16", len(comps))
	}
}
