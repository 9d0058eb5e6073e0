package main

import (
	"fmt"
	"sort"
	"strings"

	"barriermimd/internal/core"
)

// tally counts one pass's checked units and accumulates its count
// metrics. A unit is one configuration of a paper-sweep op, one
// large-blocks op, or one serve-hot request.
type tally struct {
	Attempted, Failed int
	// Wrong lists outputs a check rejected; any entry makes the run
	// incorrect. Errors the program reported are failures, not wrong
	// outputs.
	Wrong  []string
	Errors map[string]int // failure messages with their counts

	// Count metrics over the scheduled blocks that passed their checks.
	Blocks              int
	Barriers, StaticMax int64
	Sims                int
	FinishSum           int64

	layer layerCounts
}

// layerCounts holds the per-layer work counts, summed over programs and
// blocks.
type layerCounts struct {
	programs                 int
	tuples, optTuples        int64
	nodes, edges             int64
	merges, repairs, rescues int64
	patches, rebuilds        uint64
	pathHits, pathLookups    uint64
	exports                  int
	exportBytes              int64
}

func (t *tally) fail(unit string, err error) {
	t.Failed++
	if t.Errors == nil {
		t.Errors = map[string]int{}
	}
	t.Errors[unit+": "+err.Error()]++
}

func (t *tally) reject(unit string, err error) {
	t.Failed++
	if len(t.Wrong) < 20 {
		t.Wrong = append(t.Wrong, unit+": "+err.Error())
	}
}

func (t *tally) program(c compiled) {
	t.layer.programs++
	t.layer.tuples += int64(c.naive.Len())
	t.layer.optTuples += int64(c.block.Len())
	t.layer.nodes += int64(c.g.N)
	t.layer.edges += int64(c.g.TotalImpliedSynchronizations())
}

// block records one verified schedule and its simulated finishes.
func (t *tally) block(s *core.Schedule, staticMax int, finishes []int) {
	t.Blocks++
	t.Barriers += int64(s.Metrics.Barriers)
	t.StaticMax += int64(staticMax)
	for _, f := range finishes {
		t.FinishSum += int64(f)
	}
	t.Sims += len(finishes)
	m := s.Metrics
	t.layer.merges += int64(m.MergedBarriers)
	t.layer.repairs += int64(m.RepairedPairs)
	t.layer.rescues += int64(m.OptimalRescues)
	t.layer.patches += m.Maint.Patches
	t.layer.rebuilds += m.Maint.Rebuilds
	t.layer.pathHits += m.PathCache.Hits
	t.layer.pathLookups += m.PathCache.Lookups()
}

// add folds o into t.
func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.Wrong = append(t.Wrong, o.Wrong...)
	for k, v := range o.Errors {
		if t.Errors == nil {
			t.Errors = map[string]int{}
		}
		t.Errors[k] += v
	}
	t.Blocks += o.Blocks
	t.Barriers += o.Barriers
	t.StaticMax += o.StaticMax
	t.Sims += o.Sims
	t.FinishSum += o.FinishSum
	l, m := &t.layer, o.layer
	l.programs += m.programs
	l.tuples += m.tuples
	l.optTuples += m.optTuples
	l.nodes += m.nodes
	l.edges += m.edges
	l.merges += m.merges
	l.repairs += m.repairs
	l.rescues += m.rescues
	l.patches += m.patches
	l.rebuilds += m.rebuilds
	l.pathHits += m.pathHits
	l.pathLookups += m.pathLookups
	l.exports += m.exports
	l.exportBytes += m.exportBytes
}

// counts returns the schedule-quality metrics, which are deterministic
// for a seed.
func (t *tally) counts() (map[string]float64, error) {
	if t.Blocks == 0 || t.Sims == 0 {
		return nil, fmt.Errorf("no verified schedules to measure")
	}
	return map[string]float64{
		"barriers_per_block": float64(t.Barriers) / float64(t.Blocks),
		"static_max_cycles":  float64(t.StaticMax) / float64(t.Blocks),
		"finish_mean_cycles": float64(t.FinishSum) / float64(t.Sims),
	}, nil
}

// summary describes the failures for standard error.
func (t *tally) summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d of %d units failed", t.Failed, t.Attempted)
	keys := make([]string, 0, len(t.Errors))
	for k := range t.Errors {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "\n  %d× %s", t.Errors[k], k)
	}
	for _, w := range t.Wrong {
		fmt.Fprintf(&b, "\n  WRONG OUTPUT %s", w)
	}
	return b.String()
}
