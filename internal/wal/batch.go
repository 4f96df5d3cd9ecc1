package wal

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/scheduler"
)

// Mutation op kinds, the logical controller mutations the serving engine
// logs. Replaying the same successful mutations in the same order onto
// the same starting state is deterministic, which is all recovery needs.
const (
	OpAddJob    = "add_job"
	OpAddJobs   = "add_jobs"
	OpRemoveJob = "remove_job"
	OpProgress  = "progress"
	OpWeight    = "weight"
	OpRestore   = "restore"
	// OpExternalWeight installs the cluster router's Enhanced-AMF
	// weight-sum broadcast (scheduler.SetExternalWeight). Logging it keeps
	// replica replay deterministic: a follower reconstructs the same floors
	// the shard solved under without talking to the router.
	OpExternalWeight = "external_weight"
	// OpSetPolicy switches the active fairness policy
	// (scheduler.SetPolicyName). It is replay-only: the engine logs every
	// runtime policy switch as an OpSetConfig patch, and this op stays
	// decodable so logs that carry it still recover — replay re-runs the
	// switch at the same point in the mutation order.
	OpSetPolicy = "set_policy"
	// OpSetConfig applies one PATCH /v1/config runtime-tuning patch
	// (scheduler.ApplyConfigPatch): policy and approximate-solver routing
	// in one atomic, logged application. Snapshots persist the resulting
	// config, so compaction cannot lose a logged tuning change. Fields a
	// patch from an older build carries that this one no longer knows are
	// ignored on decode.
	OpSetConfig = "set_config"
)

// Mutation is one logged controller mutation. Exactly the fields the op
// kind needs are set; arguments are logged as submitted (the scheduler's
// normalization — e.g. weight <= 0 meaning 1 — is deterministic, so
// replaying raw arguments reproduces the applied state).
type Mutation struct {
	Op     string    `json:"op"`
	ID     string    `json:"id,omitempty"`
	Weight float64   `json:"weight,omitempty"`
	Demand []float64 `json:"demand,omitempty"`
	Work   []float64 `json:"work,omitempty"`
	Done   []float64 `json:"done,omitempty"`
	// Jobs carries an atomic bulk registration (OpAddJobs).
	Jobs []scheduler.JobSpec `json:"jobs,omitempty"`
	// State carries a full state replacement (OpRestore).
	State *scheduler.Snapshot `json:"state,omitempty"`
	// Policy carries a fairness-policy switch (OpSetPolicy).
	Policy string `json:"policy,omitempty"`
	// Config carries a runtime-tuning patch (OpSetConfig).
	Config *scheduler.ConfigPatch `json:"config,omitempty"`
}

// Apply replays the mutation onto a controller.
func (m Mutation) Apply(sc *scheduler.Scheduler) error {
	switch m.Op {
	case OpAddJob:
		return sc.AddJob(m.ID, m.Weight, m.Demand, m.Work)
	case OpAddJobs:
		return sc.AddJobs(m.Jobs)
	case OpRemoveJob:
		return sc.RemoveJob(m.ID)
	case OpProgress:
		_, err := sc.ReportProgress(m.ID, m.Done)
		return err
	case OpWeight:
		return sc.UpdateWeight(m.ID, m.Weight)
	case OpExternalWeight:
		return sc.SetExternalWeight(m.Weight)
	case OpSetPolicy:
		return sc.SetPolicyName(m.Policy)
	case OpSetConfig:
		if m.Config == nil {
			return fmt.Errorf("wal: set_config mutation without config")
		}
		return sc.ApplyConfigPatch(*m.Config)
	case OpRestore:
		if m.State == nil {
			return fmt.Errorf("wal: restore mutation without state")
		}
		return sc.Restore(*m.State)
	default:
		return fmt.Errorf("wal: unknown mutation op %q", m.Op)
	}
}

// EncodeBatch serializes one committed batch as a record payload.
func EncodeBatch(ms []Mutation) ([]byte, error) {
	return json.Marshal(ms)
}

// DecodeBatch parses a record payload back into its mutations. A record
// that uses a retired feature fails with ErrRetiredState.
func DecodeBatch(payload []byte) ([]Mutation, error) {
	var ms []Mutation
	if err := json.Unmarshal(payload, &ms); err != nil {
		return nil, fmt.Errorf("wal: decoding batch: %w", err)
	}
	if err := checkRetired(payload, true); err != nil {
		return nil, err
	}
	return ms, nil
}

// EncodeState serializes a controller snapshot as a snapshot-file
// payload.
func EncodeState(snap scheduler.Snapshot) ([]byte, error) {
	return json.Marshal(snap)
}

// DecodeState parses a snapshot-file payload. A snapshot that uses a
// retired feature fails with ErrRetiredState.
func DecodeState(payload []byte) (scheduler.Snapshot, error) {
	var snap scheduler.Snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return snap, fmt.Errorf("wal: decoding state: %w", err)
	}
	return snap, checkRetired(payload, false)
}

// ReplayStats summarizes a Recovery replayed onto a controller.
type ReplayStats struct {
	// Restored reports whether a snapshot was loaded.
	Restored bool
	// Batches and Mutations count what was replayed from the record tail.
	Batches   int
	Mutations int
	// Failed counts mutations that did not re-apply cleanly. Logged
	// mutations all succeeded once, so anything here indicates a bug or
	// operator surgery on the directory; replay continues past them. State
	// using a retired feature is not counted here: it fails the replay
	// (ErrRetiredState).
	Failed int
}

// Replay restores the recovered snapshot (if any) into sc and re-applies
// the record tail. The controller should be freshly constructed with the
// deployment's site capacities; configuration is not part of the log.
// Replay stops with ErrRetiredState at the first snapshot or record that
// uses a retired feature, leaving the controller at the state before it.
func (r *Recovery) Replay(sc *scheduler.Scheduler) (ReplayStats, error) {
	var st ReplayStats
	if r.State != nil {
		snap, err := DecodeState(r.State)
		if err != nil {
			return st, err
		}
		if err := sc.Restore(snap); err != nil {
			return st, fmt.Errorf("wal: restoring snapshot: %w", err)
		}
		st.Restored = true
	}
	for _, payload := range r.Records {
		ms, err := DecodeBatch(payload)
		if errors.Is(err, ErrRetiredState) {
			return st, err
		}
		if err != nil {
			// The record passed its checksum, so this is not disk
			// corruption; count it and keep the rest of the tail.
			st.Failed++
			continue
		}
		st.Batches++
		for _, m := range ms {
			st.Mutations++
			if err := m.Apply(sc); err != nil {
				st.Failed++
			}
		}
	}
	return st, nil
}
