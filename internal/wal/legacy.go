package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
)

// ErrRetiredState reports persisted state that an older build wrote for a
// feature this one no longer serves: hierarchical queues, or the drf or
// propfair policy. Replaying it without the feature would serve a
// different allocation than the one acknowledged — a queued job would
// land in the flat set, a switch to a retired policy would leave the
// previous one active — so recovery and replica replay stop at it instead
// of skipping it.
var ErrRetiredState = errors.New("wal: state uses a retired feature (queues, drf or propfair)")

// retiredFields is the part of a logged mutation or a snapshot that only
// the retired features wrote. One type decodes both: a mutation's jobs and
// a snapshot's jobs carry the same "queue" key, and a set_policy op, a
// set_config patch and a snapshot header all name the policy as "policy".
type retiredFields struct {
	Op     string             `json:"op"`
	Queue  string             `json:"queue"`
	Queues map[string]float64 `json:"queues"`
	Policy string             `json:"policy"`
	Config *struct {
		Policy string `json:"policy"`
	} `json:"config"`
	Jobs  []retiredFields `json:"jobs"`
	State *retiredFields  `json:"state"`
}

// use describes the first retired feature f relies on ("" for none).
func (f *retiredFields) use() string {
	switch {
	case f.Op == "add_queue":
		return "add_queue record"
	case f.Queue != "":
		return fmt.Sprintf("job in queue %q", f.Queue)
	case len(f.Queues) > 0:
		return "declared queues"
	case f.Policy == "drf" || f.Policy == "propfair":
		return fmt.Sprintf("policy %q", f.Policy)
	case f.Config != nil && (f.Config.Policy == "drf" || f.Config.Policy == "propfair"):
		return fmt.Sprintf("policy %q", f.Config.Policy)
	}
	for i := range f.Jobs {
		if u := f.Jobs[i].use(); u != "" {
			return u
		}
	}
	if f.State != nil {
		return f.State.use()
	}
	return ""
}

// retiredMarkers are byte strings every payload using a retired feature
// contains. Payloads without any of them — all that this build writes,
// barring a job named after one — skip the second decode.
var retiredMarkers = [][]byte{[]byte(`"queue`), []byte(`"add_queue"`), []byte(`"drf"`), []byte(`"propfair"`)}

// checkRetired returns ErrRetiredState, naming the feature, if payload —
// a batch record when batch is set, a snapshot otherwise — uses a retired
// feature.
func checkRetired(payload []byte, batch bool) error {
	if !slices.ContainsFunc(retiredMarkers, func(m []byte) bool { return bytes.Contains(payload, m) }) {
		return nil
	}
	var fs []retiredFields
	var err error
	if batch {
		err = json.Unmarshal(payload, &fs)
	} else {
		fs = make([]retiredFields, 1)
		err = json.Unmarshal(payload, &fs[0])
	}
	if err != nil {
		return err
	}
	for i := range fs {
		if u := fs[i].use(); u != "" {
			return fmt.Errorf("%w: %s", ErrRetiredState, u)
		}
	}
	return nil
}
