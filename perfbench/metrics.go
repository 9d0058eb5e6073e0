package main

import (
	"fmt"
	"slices"
	"time"

	bm "barriermimd/internal/metrics"
)

// metricDef names a reported metric. BENCHMARK.json lists the same
// metrics, with the end-to-end bounds.
type metricDef struct{ Name, Unit, Better string }

var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"alloc_kb_per_op", "KiB", "lower"},
	{"setup_s", "s", "lower"},
	{"barriers_per_block", "count", "lower"},
	{"static_max_cycles", "cycles", "lower"},
	{"finish_mean_cycles", "cycles", "lower"},
}

// spanLayers are the library calls the benchmark times; each gives a
// <name>_us metric, the mean self time per op.
var spanLayers = []string{
	"lang.parse", "lang.lower", "opt.optimize", "dag.build",
	"schedcache.fingerprint", "core.schedule", "core.verify_static", "core.export_json",
	"machine.plan", "machine.run_many", "machine.run", "machine.check",
}

// allocLayers give a <name>.alloc_kb metric, the mean heap allocation
// per op inside the call.
var allocLayers = []string{
	"lang.parse", "opt.optimize", "dag.build", "core.schedule", "machine.run_many", "core.export_json",
}

// stageNames are core.StageStats' scheduler stages; each gives a
// core.<stage>_us metric.
var stageNames = []string{"order", "place", "merge", "verify", "finalize"}

var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range spanLayers {
		defs = append(defs, metricDef{l + "_us", "us", "lower"})
	}
	for _, s := range stageNames {
		defs = append(defs, metricDef{"core." + s + "_us", "us", "lower"})
	}
	for _, l := range allocLayers {
		defs = append(defs, metricDef{l + ".alloc_kb", "KiB", "lower"})
	}
	return append(defs,
		metricDef{"lang.tuples", "count", "lower"},
		metricDef{"opt.tuples", "count", "lower"},
		metricDef{"dag.nodes", "count", "lower"},
		metricDef{"dag.edges", "count", "lower"},
		metricDef{"schedcache.hit_ratio", "ratio", "higher"},
		metricDef{"schedcache.evictions_per_op", "count", "lower"},
		metricDef{"core.merges_per_block", "count", "higher"},
		metricDef{"core.repairs_per_block", "count", "lower"},
		metricDef{"core.optimal_rescues_per_block", "count", "higher"},
		metricDef{"core.patched_frac", "ratio", "higher"},
		metricDef{"core.path_cache_hit_ratio", "ratio", "higher"},
		metricDef{"core.export_kb", "KiB", "lower"},
		metricDef{"machine.ns_per_seed", "ns", "lower"},
		metricDef{"serve.server_us", "us", "lower"},
		metricDef{"serve.http_overhead_us", "us", "lower"},
		metricDef{"serve.coalesce_wait_us", "us", "lower"},
		metricDef{"serve.batch_mean", "count", "higher"},
		metricDef{"serve.shared_frac", "ratio", "higher"},
		metricDef{"bench.op_self_us", "us", "lower"},
		metricDef{"bench.tracing_overhead_frac", "ratio", "lower"},
	)
}()

// ratio is a/b, or 0 when b is 0: a layer that did no work reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// endToEndMetrics turns the untraced segments of the op list, the heap
// they allocated and their tally into the end-to-end metrics.
// ops_per_s and latency_p50_ms are medians over the segments; p90 is
// taken over all ops, since a segment is too short to hold ten samples
// beyond its own.
func endToEndMetrics(segs []segment, alloc uint64, t *tally) (map[string]float64, error) {
	var rate, p50, all []float64
	for _, s := range segs {
		ms := make([]float64, len(s.ops))
		for i, o := range s.ops {
			ms[i] = float64(o.Lat) / float64(time.Millisecond)
		}
		slices.Sort(ms)
		v50, err := percentile(ms, 50)
		if err != nil {
			return nil, err
		}
		rate, p50, all = append(rate, s.rate()), append(p50, v50), append(all, ms...)
	}
	slices.Sort(all)
	p90, err := percentile(all, 90)
	if err != nil {
		return nil, err
	}
	m, err := t.counts()
	if err != nil {
		return nil, err
	}
	m["ops_per_s"] = median(rate)
	m["latency_p50_ms"] = median(p50)
	m["latency_p90_ms"] = p90
	m["alloc_kb_per_op"] = float64(alloc) / 1024 / float64(len(all))
	return m, nil
}

// traced is what a traced pass saw: its spans and the layer counts of
// the blocks it checked.
type traced struct {
	ops        int // ops the spans cover
	spans      []span
	tally      *tally
	sweepWidth int // seeds per machine.run_many call
}

// layerMetrics turns a traced pass into the per-layer metrics of the
// library calls: span self times and allocations per op, and work
// counts. Layers the workload does not call report 0.
func layerMetrics(t traced) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	n := float64(t.ops)
	lt := totalsOf(t.spans)
	for _, name := range spanLayers {
		m[name+"_us"] = us(lt.self[name]) / n
	}
	for _, name := range allocLayers {
		m[name+".alloc_kb"] = float64(lt.alloc[name]) / 1024 / n
	}
	m["bench.op_self_us"] = us(lt.self["bench.op"]) / n
	m["machine.ns_per_seed"] = ratio(float64(lt.self["machine.run_many"]),
		float64(lt.calls["machine.run_many"]*t.sweepWidth))
	l := t.tally.layer
	p, b := float64(l.programs), float64(t.tally.Blocks)
	m["lang.tuples"] = ratio(float64(l.tuples), p)
	m["opt.tuples"] = ratio(float64(l.optTuples), p)
	m["dag.nodes"] = ratio(float64(l.nodes), p)
	m["dag.edges"] = ratio(float64(l.edges), p)
	m["core.merges_per_block"] = ratio(float64(l.merges), b)
	m["core.repairs_per_block"] = ratio(float64(l.repairs), b)
	m["core.optimal_rescues_per_block"] = ratio(float64(l.rescues), b)
	m["core.patched_frac"] = ratio(float64(l.patches), float64(l.patches+l.rebuilds))
	m["core.path_cache_hit_ratio"] = ratio(float64(l.pathHits), float64(l.pathLookups))
	m["core.export_kb"] = ratio(float64(l.exportBytes)/1024, float64(l.exports))
	return m
}

// histDelta is the mean of the observations h1 holds beyond h0, in the
// histogram's unit (nanoseconds for durations).
func histDelta(h1, h0 bm.Histogram) float64 {
	return ratio(float64(h1.Sum-h0.Sum), float64(h1.Count-h0.Count))
}

// counters are process-wide scheduler stage totals and schedule-cache
// traffic, read before and after a pass.
type counters struct {
	stages *bm.StageClock
	cache  bm.MemoStats
}

// counterMetrics sets the stage and cache metrics from the change in c
// over ops ops.
func counterMetrics(m map[string]float64, ops int, before, after counters) {
	n := float64(ops)
	for _, s := range stageNames {
		m["core."+s+"_us"] = us(after.stages.Total(s)-before.stages.Total(s)) / n
	}
	c0, c1 := before.cache, after.cache
	m["schedcache.hit_ratio"] = ratio(float64(c1.Hits-c0.Hits), float64(c1.Lookups()-c0.Lookups()))
	m["schedcache.evictions_per_op"] = float64(c1.Evictions-c0.Evictions) / n
}

// report is one invocation's result.
type report struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
	summary           string
	spans             []span // the traced pass's, written out when the run ends
}

// render emits the result object the benchmark contract fixes: the
// catalog's metrics with their units.
func (r *report) render(defs []metricDef) (map[string]any, error) {
	ms := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		ms[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	return map[string]any{
		"correct":   r.correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   ms,
	}, nil
}
