package core

// Diagnostics explains how a progressive-filling solve unfolded: the
// cascade of bottleneck rounds and which jobs froze at which level. This
// answers the operational question "why is my job capped at X?" — either
// it ran out of demand, or it sits in a bottleneck group whose sites
// filled up at that level.
type Diagnostics struct {
	Rounds []FreezeRound
}

// FreezeRound is one round of progressive filling.
type FreezeRound struct {
	// Level is the common (weighted) level at which this round's
	// bottleneck formed. For the final demand-capped round it is the
	// largest remaining demand level.
	Level float64
	// DemandCapped lists jobs frozen because they reached their total
	// demand.
	DemandCapped []int
	// Bottlenecked lists jobs frozen because every path to spare capacity
	// was exhausted at this level.
	Bottlenecked []int
}

// JobLimit describes what capped one job.
type JobLimit int

const (
	// LimitUnknown means the job does not appear in the diagnostics
	// (e.g. zero demand).
	LimitUnknown JobLimit = iota
	// LimitDemand means the job received its entire demand.
	LimitDemand
	// LimitBottleneck means the job was stopped by site capacity.
	LimitBottleneck
)

func (l JobLimit) String() string {
	switch l {
	case LimitDemand:
		return "demand-capped"
	case LimitBottleneck:
		return "bottlenecked"
	default:
		return "unknown"
	}
}

// Limit reports what capped job j.
func (d *Diagnostics) Limit(j int) JobLimit {
	for _, r := range d.Rounds {
		for _, k := range r.DemandCapped {
			if k == j {
				return LimitDemand
			}
		}
		for _, k := range r.Bottlenecked {
			if k == j {
				return LimitBottleneck
			}
		}
	}
	return LimitUnknown
}

// Cohort reports the other jobs frozen in the same round as job j — the
// group competing for the same saturated sites. It returns nil for jobs
// not bottlenecked.
func (d *Diagnostics) Cohort(j int) []int {
	for _, r := range d.Rounds {
		for _, k := range r.Bottlenecked {
			if k == j {
				out := make([]int, 0, len(r.Bottlenecked)-1)
				for _, o := range r.Bottlenecked {
					if o != j {
						out = append(out, o)
					}
				}
				return out
			}
		}
	}
	return nil
}

// AMFDiag computes the AMF allocation together with the freeze cascade.
// It solves the whole instance as one flow network, without the component
// decomposition, so freeze rounds are reported against the global level
// order; it is also the whole-network reference the decomposed solve is
// checked and timed against. It records no SolveStats and emits no stage
// events.
func (sv *Solver) AMFDiag(in *Instance) (*Allocation, *Diagnostics, error) {
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	diag := &Diagnostics{}
	a, err := sv.fillMono(in, nil, diag)
	return a, diag, err
}

// EnhancedAMFDiag is AMFDiag for the sharing-incentive variant.
func (sv *Solver) EnhancedAMFDiag(in *Instance) (*Allocation, *Diagnostics, error) {
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	diag := &Diagnostics{}
	a, err := sv.fillMono(in, EqualShares(in), diag)
	return a, diag, err
}
