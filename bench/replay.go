package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/wal"
)

// Layers without an interface seam between them and the engine
// (scheduler, core, wal) are measured by replay: the workload's frozen
// mutation stream applied straight to the layer's public functions, one
// timed call at a time. Counts are fixed, so the counters a replay reports
// repeat exactly, whatever the seed.
const (
	replayMutations = 300
	replaySolves    = 15
)

// replayStream is the first n mutations of connection 0's stream.
func replayStream(w workloadSpec, base *core.Instance, n int) []op {
	g := newOpGen(w, base, instanceSeed, 0)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.mutation()
	}
	return ops
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// replayScheduler applies each mutation to a scheduler.Scheduler and
// re-solves, as the engine's committer does for a batch of one.
func replayScheduler(m map[string]float64, w workloadSpec, base *core.Instance, ops []op) error {
	sc, err := newScheduler(w, base, false)
	if err != nil {
		return err
	}
	if err := sc.AddJobs(baseSpecs(base)); err != nil {
		return err
	}
	if _, _, err := sc.Resolve(); err != nil {
		return err
	}
	before := sc.Stats()
	var lat []float64
	var reused, resolved float64
	for _, o := range ops {
		start := time.Now()
		if err := o.apply(sc); err != nil {
			return fmt.Errorf("scheduler replay: %w", err)
		}
		if _, _, err := sc.Resolve(); err != nil {
			return fmt.Errorf("scheduler replay: %w", err)
		}
		lat = append(lat, us(time.Since(start)))
		st := sc.Stats()
		reused += float64(st.LastReused)
		resolved += float64(st.LastResolved)
	}
	after := sc.Stats()
	n := float64(len(ops))
	hits := float64(after.CacheHits - before.CacheHits)
	misses := float64(after.CacheMisses - before.CacheMisses)
	m["scheduler.apply_resolve_us_p50"] = median(lat)
	m["scheduler.solves_per_mutation"] = float64(after.Solves-before.Solves) / n
	m["scheduler.reused_ratio"] = ratio(reused, reused+resolved)
	m["scheduler.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["scheduler.global_invalidations_per_mutation"] = float64(after.GlobalInvalidations-before.GlobalInvalidations) / n
	return nil
}

// replayCore solves the base instance from scratch with core.Solver, the
// benchmark's own OnStage hook collecting the stage times.
func replayCore(m map[string]float64, w workloadSpec, base *core.Instance) error {
	pol, err := policy.ForName(w.Policy)
	if err != nil {
		return err
	}
	var full, comp, part []float64
	sv := core.NewSolver()
	sv.OnStage = func(ev core.StageEvent) {
		switch ev.Name {
		case core.StageSolveComponent:
			comp = append(comp, us(ev.Duration))
		case core.StagePartition:
			part = append(part, us(ev.Duration))
		}
	}
	solve := sv.AMF
	if pol.Capabilities().GlobalWeightFloors {
		solve = sv.EnhancedAMF
	}
	for i := 0; i < replaySolves; i++ {
		start := time.Now()
		if _, err := solve(base); err != nil {
			return fmt.Errorf("core replay: %w", err)
		}
		full = append(full, float64(time.Since(start))/1e6)
	}
	st := sv.LastStats()
	if len(comp) == 0 {
		// A one-component instance takes the solver's monolithic path,
		// which emits no stage events: the solve is the component solve
		// (and core.partition_us_p50 reads 0).
		for _, ms := range full {
			comp = append(comp, ms*1e3)
		}
	}
	m["core.solve_full_ms_p50"] = median(full)
	m["core.solve_component_us_p50"] = median(comp)
	m["core.partition_us_p50"] = median(part)
	m["core.components"] = float64(st.Components)
	m["core.largest_component"] = float64(st.LargestComponent)
	return nil
}

func (o op) mutation() wal.Mutation {
	switch o.Kind {
	case opWeight:
		return wal.Mutation{Op: wal.OpWeight, ID: o.Job, Weight: o.Weight}
	case opProgress:
		return wal.Mutation{Op: wal.OpProgress, ID: o.Job, Done: o.Done}
	case opAdd:
		return wal.Mutation{Op: wal.OpAddJob, ID: o.Job, Weight: o.Weight, Demand: o.Demand}
	default:
		return wal.Mutation{Op: wal.OpRemoveJob, ID: o.Job}
	}
}

// replayWAL logs the base registration and then each mutation as its own
// record — encode, append, fsync, timed apart — and finally recovers the
// directory into a fresh controller. The fsync is the sandbox's, not a
// storage device's. A workload that runs without -data-dir has no WAL
// work to measure and reports zeros.
func replayWAL(m map[string]float64, w workloadSpec, base *core.Instance, ops []op, dir string) error {
	if !w.WAL {
		for _, name := range []string{"wal.encode_us_p50", "wal.append_us_p50", "wal.fsync_us_p50", "wal.bytes_per_mutation", "wal.recover_ms"} {
			m[name] = 0
		}
		return nil
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	log, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	var encode, appendT, fsync []float64
	var bytes float64
	write := func(mut wal.Mutation, timed bool) error {
		t0 := time.Now()
		payload, err := wal.EncodeBatch([]wal.Mutation{mut})
		if err != nil {
			return err
		}
		t1 := time.Now()
		if err := log.Append(payload); err != nil {
			return err
		}
		t2 := time.Now()
		if err := log.Sync(); err != nil {
			return err
		}
		if timed {
			encode = append(encode, us(t1.Sub(t0)))
			appendT = append(appendT, us(t2.Sub(t1)))
			fsync = append(fsync, us(time.Since(t2)))
			bytes += float64(len(payload))
		}
		return nil
	}
	err = write(wal.Mutation{Op: wal.OpAddJobs, Jobs: baseSpecs(base)}, false)
	for i := 0; err == nil && i < len(ops); i++ {
		err = write(ops[i].mutation(), true)
	}
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal replay: %w", err)
	}

	sc, err := newScheduler(w, base, false)
	if err != nil {
		return err
	}
	start := time.Now()
	log, recovery, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	st, err := recovery.Replay(sc)
	recoverMS := float64(time.Since(start)) / 1e6
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err == nil && (st.Failed > 0 || st.Mutations != len(ops)+1) {
		err = fmt.Errorf("recovered %d mutations (%d failed), logged %d", st.Mutations, st.Failed, len(ops)+1)
	}
	if err != nil {
		return fmt.Errorf("wal replay: %w", err)
	}
	m["wal.encode_us_p50"] = median(encode)
	m["wal.append_us_p50"] = median(appendT)
	m["wal.fsync_us_p50"] = median(fsync)
	m["wal.bytes_per_mutation"] = bytes / float64(len(ops))
	m["wal.recover_ms"] = recoverMS
	return nil
}
