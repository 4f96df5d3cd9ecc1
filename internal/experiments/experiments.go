// Package experiments implements the full evaluation suite E1-E10 from
// DESIGN.md: every table and figure of the paper's evaluation,
// reconstructed per the abstract (see the source-text caveat in DESIGN.md).
// The same code backs the root-level benchmarks (bench_test.go) and the
// amf-bench CLI, so "the numbers in the README" and "what the harness
// prints" can never drift apart.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/table"
)

// Options parameterizes a suite run.
type Options struct {
	// Seed drives all workload generation (default 2019, the paper year).
	Seed uint64
	// Quick shrinks instance sizes and trial counts by roughly 4x for
	// smoke tests and -short test runs.
	Quick bool
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 2019
	}
	return o
}

// scaled reduces a size under Quick.
func (o Options) scaled(full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

// Result is the rendered outcome of one experiment.
type Result struct {
	ID     string
	Title  string
	Tables []*table.Table
	Series []*table.Series
	Notes  []string
}

// Render produces the full text report of the experiment.
func (r Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.Render())
		b.WriteString("\n")
	}
	for _, s := range r.Series {
		b.WriteString(s.Render())
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// RenderMarkdown produces the experiment report as GitHub-flavoured
// markdown (used by amf-bench -format md to build EXPERIMENTS-style
// documents directly from a run).
func (r Result) RenderMarkdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.Markdown())
		b.WriteString("\n")
	}
	for _, s := range r.Series {
		b.WriteString(s.Markdown())
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "*%s*\n\n", n)
	}
	return b.String()
}

// runner is one experiment entry.
type runner struct {
	id    string
	title string
	fn    func(Options) Result
}

func registry() []runner {
	return []runner{
		{"E1", "Balance of aggregate allocations vs. workload skew", E1AllocationBalance},
		{"E2", "CDF of aggregate allocations under high skew", E2AllocationCDF},
		{"E3", "Job completion time vs. skew (offline batch, fluid)", E3CompletionTime},
		{"E4", "Fairness properties of AMF (empirical verification)", E4Properties},
		{"E5", "Sharing-incentive violations: AMF vs. Enhanced AMF", E5SharingIncentive},
		{"E6", "Price of the sharing-incentive enhancement", E6EnhancedCost},
		{"E7", "Completion-time add-on benefit (static stretch)", E7AddonBenefit},
		{"E8", "Online simulation: JCT and utilization vs. load", E8OnlineSimulation},
		{"E9", "Allocator scalability: Newton vs. bisection", E9Scalability},
		{"E10", "Slot-granular vs. fluid cross-check", E10SlotFluidCrossCheck},
		{"X2", "Extension: re-allocation frequency ablation", X2ReallocAblation},
		{"X3", "Extension: locality relaxation (remote spillover)", X3LocalityRelaxation},
	}
}

// Entry describes one experiment without running it.
type Entry struct {
	ID    string
	Title string
}

// List returns the experiment IDs and titles in order.
func List() []Entry {
	rs := registry()
	out := make([]Entry, len(rs))
	for i, r := range rs {
		out[i] = Entry{ID: r.id, Title: r.title}
	}
	return out
}

// IDs lists the experiment identifiers in order.
func IDs() []string {
	rs := registry()
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.id
	}
	return out
}

// Run executes one experiment by ID.
func Run(id string, opt Options) (Result, error) {
	for _, r := range registry() {
		if strings.EqualFold(r.id, id) {
			return r.fn(opt), nil
		}
	}
	return Result{}, fmt.Errorf("experiments: unknown experiment %q (have %s)",
		id, strings.Join(IDs(), ", "))
}

// All executes the full suite in order.
func All(opt Options) []Result {
	rs := registry()
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = r.fn(opt)
	}
	return out
}
