package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"barriermimd/internal/synth"
)

// libRun runs a few paper-sweep ops and returns their tally.
func libRun(t *testing.T, seed int64, ops int) (tally, []string) {
	t.Helper()
	w := newPaperSweep()
	srcs, warm, err := prepareLibrary(w, runConfig{seed: seed, ops: ops, warm: 2}, 0, ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Wrong) > 0 {
		t.Fatalf("warm-up: %v", warm.Wrong)
	}
	p := measureLibrary(w, srcs, seed, 0, nil)
	return p.tally, srcs
}

func TestSameSeedSameOpsAndCounts(t *testing.T) {
	a, srcA := libRun(t, 5, 6)
	b, srcB := libRun(t, 5, 6)
	c, srcC := libRun(t, 6, 6)
	if !slices.Equal(srcA, srcB) {
		t.Fatal("same seed gave different op lists")
	}
	if slices.Equal(srcA, srcC) {
		t.Fatal("another seed gave the same op list")
	}
	ca, err := a.counts()
	if err != nil {
		t.Fatal(err)
	}
	cb, _ := b.counts()
	cc, _ := c.counts()
	if !reflect.DeepEqual(ca, cb) || a.Attempted != b.Attempted || a.Failed != b.Failed {
		t.Fatalf("same seed: counts %v (%d/%d failed) vs %v (%d/%d failed)",
			ca, a.Failed, a.Attempted, cb, b.Failed, b.Attempted)
	}
	if reflect.DeepEqual(ca, cc) {
		t.Fatalf("another seed gave identical counts %v", ca)
	}
	if a.Attempted != 6*len(paperConfigs) || len(a.Wrong) > 0 {
		t.Fatalf("attempted %d, wrong %v", a.Attempted, a.Wrong)
	}
}

func TestWarmupDisjointFromTimedOps(t *testing.T) {
	seeds := programSeeds(9, 40)
	if !slices.Equal(seeds[:10], programSeeds(9, 10)) {
		t.Fatal("the warm-up prefix depends on the op count")
	}
	seen := map[int64]bool{}
	for _, s := range seeds {
		if seen[s] {
			t.Fatalf("program seed %d drawn twice", s)
		}
		seen[s] = true
	}
}

// The optimal-SBM placement failure must show as one failed unit, while
// the op's other configurations still run and pass.
func TestKnownDefectCountsAsFailure(t *testing.T) {
	p, err := synth.Generate(synth.Config{Statements: 80, Variables: variables}, 100233)
	if err != nil {
		t.Fatal(err)
	}
	w := newPaperSweep()
	w.reset()
	w.run(p.String(), nil)
	var tl tally
	w.check(&tl, 1)
	if tl.Attempted != 4 || tl.Failed != 1 || len(tl.Wrong) > 0 || tl.Blocks != 3 {
		t.Fatalf("attempted %d failed %d blocks %d wrong %v", tl.Attempted, tl.Failed, tl.Blocks, tl.Wrong)
	}
	for msg := range tl.Errors {
		if !strings.HasPrefix(msg, "sbm/optimal: core: no sound barrier placement") {
			t.Fatalf("unexpected failure %q", msg)
		}
	}
}

func TestServeHotMatchesLibrary(t *testing.T) {
	all, _, warm, err := hotInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	h, w, err := startHot(all, 4)
	if err != nil {
		t.Fatal(err)
	}
	warm.add(w)
	progs := all[hotWarmPrograms:]
	defer func() {
		if err := h.stop(); err != nil {
			t.Error(err)
		}
	}()
	p := h.drive(progs, 0, 2*hotPrograms, nil)
	if p.tally.Blocks != 2*hotPrograms {
		t.Fatalf("%d of %d responses verified", p.tally.Blocks, 2*hotPrograms)
	}
	if len(warm.Wrong)+len(p.tally.Wrong) > 0 || warm.Failed+p.tally.Failed > 0 {
		t.Fatalf("warm-up %s; timed %s", warm.summary(), p.tally.summary())
	}
	if p.tally.Attempted != 2*hotPrograms || len(p.ops) != 2*hotPrograms {
		t.Fatalf("attempted %d, %d latencies", p.tally.Attempted, len(p.ops))
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 90); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if v, err := percentile(xs, 50); err != nil || v != 50 {
		t.Fatalf("p50 of 1..100 = %v, %v; want 50", v, err)
	}
	if _, err := percentile(xs[:99], 90); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Fatal("p99 of 100 samples must be refused")
	}
	for _, pct := range []int{50, 90, 99} {
		n := minSamples(pct)
		if _, err := percentile(xs[:0:0], pct); err == nil {
			t.Fatal("percentile of no samples")
		}
		big := make([]float64, n)
		if _, err := percentile(big, pct); err != nil {
			t.Fatalf("p%d of minSamples = %d: %v", pct, n, err)
		}
		if _, err := percentile(big[:n-1], pct); err == nil {
			t.Fatalf("p%d of %d samples accepted", pct, n-1)
		}
	}
	if minSamples(90) != 100 || minSamples(50) != 20 {
		t.Fatalf("minSamples: p90 %d, p50 %d", minSamples(90), minSamples(50))
	}
}

func TestOpsForWholePassesAndP90(t *testing.T) {
	for _, w := range workloads {
		for _, s := range []int{1, 15, 60} {
			n := w.opsFor(s)
			if n%w.pass != 0 || n/segments < minSamples(50) || n < minSamples(90) {
				t.Errorf("%s at %d s: %d ops", w.name, s, n)
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 30 * ms},
		{Name: "b", Parent: 0, Start: 20 * ms, End: 50 * ms},  // overlaps a
		{Name: "c", Parent: 0, Start: 90 * ms, End: 120 * ms}, // runs past the parent
		{Name: "d", Parent: 2, Start: 25 * ms, End: 35 * ms},  // child of b
		{Name: "op", Parent: -1, Start: 200 * ms, End: 210 * ms},
	}
	want := []time.Duration{50 * ms, 20 * ms, 20 * ms, 30 * ms, 10 * ms, 10 * ms}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	lt := totalsOf(spans)
	if lt.self["op"] != 60*ms || lt.calls["op"] != 2 {
		t.Fatalf("op totals: %v over %d calls", lt.self["op"], lt.calls["op"])
	}
	other := []span{{Name: "op", Parent: -1}, {Name: "a", Parent: 0}}
	merged := appendSpans(spans[:2:2], other)
	if merged[2].Parent != -1 || merged[3].Parent != 2 {
		t.Fatalf("appendSpans parents: %+v", merged)
	}
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(cfg.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v, benchmark reports %v", cfg.EndToEnd, endToEnd)
	}
	if !slices.Equal(cfg.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json %v, benchmark reports %v", cfg.PerLayer, perLayer)
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
		if d := lookup(w.Name); d == nil {
			t.Errorf("BENCHMARK.json workload %s is not defined", w.Name)
		} else if d.why != w.Why {
			t.Errorf("%s: BENCHMARK.json gives why %q, the benchmark %q", w.Name, w.Why, d.why)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v", names)
	}
}
