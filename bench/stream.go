package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/randx"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

type opKind uint8

const (
	opWeight opKind = iota
	opProgress
	opAdd
	opRemove
	opShares
	opAllocation
)

// opClass groups kinds the way a client sees them: a mutation, a point
// read, a full read. Latency metrics and limits are per class.
type opClass uint8

const (
	classWrite opClass = iota
	classPoint
	classFull
	numClasses
)

var classNames = [numClasses]string{"write", "shares", "allocation"}

func (k opKind) class() opClass {
	switch k {
	case opShares:
		return classPoint
	case opAllocation:
		return classFull
	default:
		return classWrite
	}
}

// op is one request. Exactly the fields its kind needs are set.
type op struct {
	Kind   opKind
	Job    string
	Weight float64   // opWeight, opAdd
	Demand []float64 // opAdd
	Done   []float64 // opProgress
}

// baseInstance builds the workload's block-diagonal base job set. Base
// jobs are never removed and carry 1e6× their demand as work, so no
// progress report in a run completes one.
func baseInstance(w workloadSpec) *core.Instance {
	return workload.GenerateChurn(workload.ChurnConfig{
		Sparse: workload.SparseConfig{
			Components:        w.Components,
			JobsPerComponent:  w.JobsPer,
			SitesPerComponent: w.SitesPer,
			Seed:              instanceSeed,
		},
		Mutations: 1,
		Seed:      instanceSeed,
	}).Inst
}

func baseSpecs(in *core.Instance) []scheduler.JobSpec {
	specs := make([]scheduler.JobSpec, len(in.JobName))
	for j, name := range in.JobName {
		specs[j] = scheduler.JobSpec{ID: name, Weight: 1, Demand: in.Demand[j], Work: in.Work[j]}
	}
	return specs
}

// opGen is one client's endless, deterministic request stream. Two
// properties make every request succeed however the streams interleave: a
// stream only mutates jobs it owns (whole components when there are
// enough of them, else every clients-th job), and a transient job is
// added and removed by the same stream, in order. Reads target base jobs,
// which are never removed.
type opGen struct {
	w    workloadSpec
	base *core.Instance
	// timing, from -seed, draws each request's class and which job a point
	// read asks for (the arrival gaps have a clock of their own, drive.go).
	// content, from instanceSeed, draws the mutations: a stream's n-th
	// mutation is the same on every
	// run, because what a mutation costs to solve depends on what it
	// changes (the same 128-job component re-solves in 4.5 to 7.8 ms per
	// request depending on the weights the stream happened to assign), and
	// runs are compared on equal work.
	timing  *rand.Rand
	content *rand.Rand
	conn    int
	owned   []int     // base job indices this stream mutates and reads
	pop     []float64 // point-read popularity over owned; nil = uniform
	live    []string  // transient jobs this stream added, oldest first
	nextID  int
}

func newOpGen(w workloadSpec, base *core.Instance, seed uint64, conn int) *opGen {
	g := &opGen{
		w: w, base: base, conn: conn,
		timing:  randx.Stream(seed, fmt.Sprintf("bench/%s/conn%d", w.Name, conn)),
		content: randx.Stream(instanceSeed, fmt.Sprintf("bench/%s/conn%d/content", w.Name, conn)),
	}
	for j := range base.JobName {
		owner := j % clients
		if w.Components >= clients {
			owner = (j / w.JobsPer) % clients
		}
		if owner == conn {
			g.owned = append(g.owned, j)
		}
	}
	if w.ZipfJobs > 0 {
		g.pop = workload.ZipfWeights(len(g.owned), w.ZipfJobs)
	}
	return g
}

// next draws one request from the workload's mix.
func (g *opGen) next() op {
	w := g.w
	switch p := g.timing.Float64(); {
	case p < w.Full:
		return op{Kind: opAllocation}
	case p < w.Full+w.Point:
		j := g.timing.Intn(len(g.owned))
		if g.pop != nil {
			j = workload.SampleIndex(g.timing, g.pop)
		}
		return op{Kind: opShares, Job: g.base.JobName[g.owned[j]]}
	}
	return g.mutation()
}

// mutation draws the connection's next mutation from the frozen content
// stream.
func (g *opGen) mutation() op {
	rng := g.content
	j := g.owned[rng.Intn(len(g.owned))]
	m := g.w.Writes
	switch p := rng.Float64(); {
	case p < m.Weight:
		// Quantized like workload.GenerateChurn, so states recur.
		return op{Kind: opWeight, Job: g.base.JobName[j], Weight: 0.5 + 0.25*float64(rng.Intn(14))}
	case p < m.Weight+m.Progress:
		done := make([]float64, len(g.base.Demand[j]))
		for s, d := range g.base.Demand[j] {
			if d > 0 {
				done[s] = d * rng.Float64()
			}
		}
		return op{Kind: opProgress, Job: g.base.JobName[j], Done: done}
	case p < m.Weight+m.Progress+m.Add || len(g.live) == 0:
		// A transient job copies a base job's footprint, so it stays in
		// that job's component (and, in a cluster, on its shard).
		scale := 0.5 + rng.Float64()
		demand := make([]float64, len(g.base.Demand[j]))
		for s, d := range g.base.Demand[j] {
			demand[s] = d * scale
		}
		id := fmt.Sprintf("t%d-%d", g.conn, g.nextID)
		g.nextID++
		g.live = append(g.live, id)
		return op{Kind: opAdd, Job: id, Weight: 0.5 + 0.25*float64(rng.Intn(14)), Demand: demand}
	default:
		id := g.live[0]
		g.live = g.live[1:]
		return op{Kind: opRemove, Job: id}
	}
}

// apply replays an acknowledged mutation onto a controller: how the
// correctness gate and the scheduler replay rebuild state.
func (o op) apply(sc *scheduler.Scheduler) error {
	switch o.Kind {
	case opWeight:
		return sc.UpdateWeight(o.Job, o.Weight)
	case opProgress:
		_, err := sc.ReportProgress(o.Job, o.Done)
		return err
	case opAdd:
		return sc.AddJob(o.Job, o.Weight, o.Demand, nil)
	case opRemove:
		return sc.RemoveJob(o.Job)
	default:
		return fmt.Errorf("bench: op kind %d is not a mutation", o.Kind)
	}
}
