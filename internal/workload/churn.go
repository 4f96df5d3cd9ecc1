package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/randx"
)

// ChurnKind enumerates the mutation kinds in a churn stream.
type ChurnKind int

const (
	// ChurnWeight reweights a long-lived base job.
	ChurnWeight ChurnKind = iota
	// ChurnProgress reports partial progress on a base job.
	ChurnProgress
	// ChurnAdd admits a short-lived transient job into one block.
	ChurnAdd
	// ChurnRemove evicts a transient job admitted earlier in the stream.
	ChurnRemove
)

// ChurnOp is one mutation. Every op is confined to a single component of
// the base instance, so each commit invalidates exactly one block of the
// job×site graph — the regime incremental re-solving targets.
type ChurnOp struct {
	Kind      ChurnKind
	Component int
	Job       string
	// Weight is set for ChurnWeight and ChurnAdd.
	Weight float64
	// Demand and Work are set for ChurnAdd.
	Demand []float64
	Work   []float64
	// Done is set for ChurnProgress.
	Done []float64
}

// ChurnTarget is anything the stream can be applied to; both
// scheduler.Scheduler and serve.Engine satisfy it.
type ChurnTarget interface {
	AddJob(id string, weight float64, demand, work []float64) error
	RemoveJob(id string) error
	UpdateWeight(id string, weight float64) error
	ReportProgress(id string, done []float64) (bool, error)
}

// ChurnConfig parameterizes a churn stream over a sparse base instance.
type ChurnConfig struct {
	// Sparse shapes the base instance (see GenerateSparse).
	Sparse SparseConfig
	// Mutations is the stream length (default 1024).
	Mutations int
	// WorkScale sets base-job outstanding work per unit demand
	// (default 1e6), large enough that the small ChurnProgress deltas
	// never complete a base job even when the stream is replayed.
	WorkScale float64
	// Seed drives the op stream (the base uses Sparse.Seed).
	Seed uint64
	// ZipfSkew skews which component each mutation targets: components
	// are ranked by index and hit with probability ∝ rank^(-ZipfSkew)
	// (ZipfWeights). 0 (the default) is uniform; larger values
	// concentrate churn on a few hot components — the contention shape
	// the paper's evaluation sweeps, and the worst case for the
	// incremental solver's dirty-component tracking.
	ZipfSkew float64
}

func (c ChurnConfig) withDefaults() ChurnConfig {
	c.Sparse = c.Sparse.withDefaults()
	if c.Mutations <= 0 {
		c.Mutations = 1024
	}
	if c.WorkScale <= 0 {
		c.WorkScale = 1e6
	}
	return c
}

// Churn is a named base instance plus a deterministic mutation stream.
type Churn struct {
	Inst *core.Instance
	Ops  []ChurnOp
}

// GenerateChurn builds a block-diagonal base instance with named jobs
// ("c<comp>-j<idx>") and a stream of component-local mutations: weight
// updates and progress reports against base jobs, plus admit/evict pairs
// of transient jobs ("c<comp>-t<n>"). Base jobs are never removed and
// carry WorkScale× their demand as outstanding work, so applying the
// stream — even cyclically — only ever fails with duplicate-add or
// unknown-job errors on transient jobs, which callers can ignore.
func GenerateChurn(cfg ChurnConfig) *Churn {
	cfg = cfg.withDefaults()
	sp := cfg.Sparse
	in := GenerateSparse(sp)
	n := len(in.Demand)
	in.JobName = make([]string, n)
	in.Work = make([][]float64, n)
	for j := range in.Demand {
		c, i := j/sp.JobsPerComponent, j%sp.JobsPerComponent
		in.JobName[j] = fmt.Sprintf("c%d-j%d", c, i)
		row := make([]float64, len(in.Demand[j]))
		for s, d := range in.Demand[j] {
			row[s] = d * cfg.WorkScale
		}
		in.Work[j] = row
	}

	rng := randx.Stream(cfg.Seed, "workload/churn")
	m := len(in.SiteCapacity)
	// Component popularity: uniform by default, Zipf-skewed when asked.
	var popularity []float64
	if cfg.ZipfSkew > 0 {
		popularity = ZipfWeights(sp.Components, cfg.ZipfSkew)
	}
	pick := func() int {
		if popularity == nil {
			return rng.Intn(sp.Components)
		}
		return SampleIndex(rng, popularity)
	}
	// Per-component pool of live transient jobs (names only; transient
	// demand rows are regenerated per add).
	transient := make([][]string, sp.Components)
	next := make([]int, sp.Components)
	ops := make([]ChurnOp, 0, cfg.Mutations)
	for len(ops) < cfg.Mutations {
		c := pick()
		op := ChurnOp{Component: c}
		switch p := rng.Float64(); {
		case p < 0.50: // reweight a base job
			op.Kind = ChurnWeight
			op.Job = in.JobName[c*sp.JobsPerComponent+rng.Intn(sp.JobsPerComponent)]
			// Quantized weights, so replayed streams revisit earlier weights.
			op.Weight = 0.5 + 0.25*float64(rng.Intn(14))
		case p < 0.70: // progress on a base job
			op.Kind = ChurnProgress
			j := c*sp.JobsPerComponent + rng.Intn(sp.JobsPerComponent)
			op.Job = in.JobName[j]
			done := make([]float64, m)
			for s, d := range in.Demand[j] {
				if d > 0 {
					done[s] = d * rng.Float64()
				}
			}
			op.Done = done
		case p < 0.85 || len(transient[c]) == 0: // admit a transient job
			op.Kind = ChurnAdd
			op.Job = fmt.Sprintf("c%d-t%d", c, next[c])
			next[c]++
			op.Weight = 0.5 + 0.25*float64(rng.Intn(14))
			op.Demand = blockDemandRow(sp, c, rng)
			transient[c] = append(transient[c], op.Job)
		default: // evict the oldest transient in the block
			op.Kind = ChurnRemove
			op.Job = transient[c][0]
			transient[c] = transient[c][1:]
		}
		ops = append(ops, op)
	}
	return &Churn{Inst: in, Ops: ops}
}

// blockDemandRow draws a demand row confined to component c's site block,
// anchored at the block's first site (matching GenerateSparse's shape).
func blockDemandRow(sp SparseConfig, c int, rng *rand.Rand) []float64 {
	m := sp.Components * sp.SitesPerComponent
	return demandRowAt(m, c*sp.SitesPerComponent, sp.SitesPerComponent, sp.MeanDemand, rng)
}

// demandRowAt draws a demand row over a block of sitesPer sites starting
// at s0 in an m-site instance, anchored at s0 so every job in the block
// stays in one connected component.
func demandRowAt(m, s0, sitesPer int, mean float64, rng *rand.Rand) []float64 {
	row := make([]float64, m)
	k := 1 + rng.Intn(sitesPer)
	sites := append([]int{0}, rng.Perm(sitesPer - 1)[:k-1]...)
	total := mean * (0.5 + rng.Float64())
	split := make([]float64, k)
	var sum float64
	for x := range split {
		split[x] = 0.1 + rng.Float64()
		sum += split[x]
	}
	for x, off := range sites {
		if x > 0 {
			off++
		}
		row[s0+off] = total * split[x] / sum
	}
	return row
}

// Populate admits the base jobs into t in instance order.
func (c *Churn) Populate(t ChurnTarget) error {
	in := c.Inst
	for j, name := range in.JobName {
		if err := t.AddJob(name, 1, in.Demand[j], in.Work[j]); err != nil {
			return err
		}
	}
	return nil
}

// Apply applies one op to t. Errors from duplicate adds or removals of
// already-evicted transients (possible when a stream is replayed
// cyclically) are the caller's to classify.
func (op ChurnOp) Apply(t ChurnTarget) error {
	switch op.Kind {
	case ChurnWeight:
		return t.UpdateWeight(op.Job, op.Weight)
	case ChurnProgress:
		_, err := t.ReportProgress(op.Job, op.Done)
		return err
	case ChurnAdd:
		return t.AddJob(op.Job, op.Weight, op.Demand, op.Work)
	case ChurnRemove:
		return t.RemoveJob(op.Job)
	default:
		return fmt.Errorf("workload: unknown churn op kind %d", op.Kind)
	}
}
