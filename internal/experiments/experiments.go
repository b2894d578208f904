// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment has a runner returning structured results
// plus a textual rendering that prints the same rows/series the paper
// reports. cmd/bench drives them from the command line; bench_test.go
// exposes each as a testing.B benchmark.
//
// Runners accept a Scale: Quick shrinks sweeps and durations for CI and
// benchmarks; Full runs the paper-shaped parameter grids.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"clipper/internal/core"
)

// Scale selects experiment fidelity.
type Scale int

// Scales.
const (
	// Quick runs a reduced sweep suitable for tests and benchmarks
	// (seconds).
	Quick Scale = iota
	// Full runs the paper-shaped grids (minutes).
	Full
)

// Result is one experiment's rendered outcome.
type Result struct {
	// ID is the experiment identifier, e.g. "fig4".
	ID string
	// Title names the paper artifact reproduced.
	Title string
	// Lines is the printable report, one row/series per line.
	Lines []string
}

// String renders the result as a report block.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// runner executes one experiment.
type runner func(scale Scale) (Result, error)

var registry = map[string]runner{}

func register(id string, r runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
}

// IDs returns the registered experiment ids in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the experiment with the given id.
func Run(id string, scale Scale) (Result, error) {
	r, ok := registry[id]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return r(scale)
}

func init() {
	register("table1", runTable1)
	register("table2", runTable2)
	register("fig3", runFig3)
	register("fig4", runFig4)
	register("fig5", runFig5)
	register("fig6", runFig6)
	register("fig7", runFig7)
	register("fig8", runFig8)
	register("fig9", runFig9)
	register("fig10", runFig10)
	register("fig11", runFig11)
	register("cache16", runCacheFeedback)
	register("ablation-aimd", runAblationAIMD)
	register("ablation-eta", runAblationExp3Eta)
	register("ablation-cache", runAblationCacheSize)
	register("extension-cascade", runCascade)
}

// rrSched pins an experiment's Clipper node to round-robin dispatch.
// The paper figures were measured before load-aware scheduling existed;
// pinning keeps their replica-visit order deterministic so the plotted
// numbers stay comparable across scheduler changes.
func rrSched() core.SchedulerConfig {
	return core.SchedulerConfig{Policy: core.SchedRoundRobin}
}
