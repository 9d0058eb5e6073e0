package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"barriermimd/internal/core"
	"barriermimd/internal/metrics"
	"barriermimd/internal/schedcache"
)

// libWorkload is a workload whose ops are in-process library calls made
// by one goroutine. An op's outputs stay in the receiver until check.
type libWorkload interface {
	stmts() int
	// reset drops state carried between ops, such as a cache.
	reset()
	run(src string, tr *tracer)
	// check verifies the last op's outputs and counts them into t.
	check(t *tally, memSeed int64)
	cacheStats() metrics.MemoStats
}

// sweepSeeds is the random-sweep width of a paper-sweep configuration.
const sweepSeeds = 16

func sweepSeedList() []int64 {
	s := make([]int64, sweepSeeds)
	for i := range s {
		s[i] = int64(i)
	}
	return s
}

// paperConfigs are the paper's four machine × insertion configurations.
var paperConfigs = []struct {
	machine   core.MachineKind
	insertion core.Insertion
	name      string
}{
	{core.SBM, core.Conservative, "sbm/conservative"},
	{core.SBM, core.Optimal, "sbm/optimal"},
	{core.DBM, core.Conservative, "dbm/conservative"},
	{core.DBM, core.Optimal, "dbm/optimal"},
}

// paperSweep is the researcher regenerating the paper's comparisons with
// bmexp -cache and bmsim's checks: every configuration of every program
// goes through the schedule cache, the plan compiler, a random sweep and
// the min/max dependence checks.
type paperSweep struct {
	cache *schedcache.Cache
	seeds []int64
	prog  compiled
	err   error
	cfgs  []sweepConfig
}

type sweepConfig struct {
	sched *core.Schedule
	err   error
	sim   simOut
}

func newPaperSweep() libWorkload {
	return &paperSweep{seeds: sweepSeedList(), cfgs: make([]sweepConfig, len(paperConfigs))}
}

func (w *paperSweep) stmts() int                    { return 80 }
func (w *paperSweep) reset()                        { w.cache = schedcache.New(schedcache.DefaultCapacity) }
func (w *paperSweep) cacheStats() metrics.MemoStats { return w.cache.Stats() }

func (w *paperSweep) run(src string, tr *tracer) {
	w.prog, w.err = compile(src, tr)
	if w.err != nil {
		return
	}
	for i, pc := range paperConfigs {
		c := &w.cfgs[i]
		opts := core.DefaultOptions(procs)
		opts.Machine, opts.Insertion, opts.Cache = pc.machine, pc.insertion, w.cache
		// The cache memoizes the fingerprint on the graph, so this call
		// moves the hashing out of ScheduleDAG rather than adding to it.
		tr.begin("schedcache.fingerprint")
		w.cache.Fingerprint(w.prog.g)
		tr.end()
		tr.begin("core.schedule")
		c.sched, c.err = core.ScheduleDAG(w.prog.g, opts)
		tr.end()
		if c.err == nil {
			c.err = simulate(c.sched, w.seeds, &c.sim, tr)
		}
	}
}

func (w *paperSweep) check(t *tally, memSeed int64) {
	t.Attempted += len(paperConfigs)
	if w.err != nil {
		for _, pc := range paperConfigs {
			t.fail(pc.name, w.err)
		}
		return
	}
	if err := w.prog.checkEval(memSeed); err != nil {
		for _, pc := range paperConfigs {
			t.reject(pc.name, err)
		}
		return
	}
	t.program(w.prog)
	for i, pc := range paperConfigs {
		c := &w.cfgs[i]
		if c.err != nil {
			t.fail(pc.name, c.err)
			continue
		}
		if err := c.sched.VerifyStatic(); err != nil {
			t.reject(pc.name, err)
			continue
		}
		hi, err := checkSim(c.sched, &c.sim)
		if err != nil {
			t.reject(pc.name, err)
			continue
		}
		t.block(c.sched, hi, c.sim.finishes)
	}
}

// largeBlocks is the compiler user running bmsched -json on a big block:
// compile, schedule (SBM, conservative, no cache), verify and export.
type largeBlocks struct {
	seeds     []int64
	prog      compiled
	err       error
	sched     *core.Schedule
	verifyErr error
	js        []byte
	sim       simOut
}

func newLargeBlocks() libWorkload { return &largeBlocks{seeds: sweepSeedList()} }

func (w *largeBlocks) stmts() int                    { return 480 }
func (w *largeBlocks) reset()                        {}
func (w *largeBlocks) cacheStats() metrics.MemoStats { return metrics.MemoStats{} }

func (w *largeBlocks) run(src string, tr *tracer) {
	w.sched, w.js = nil, nil
	w.prog, w.err = compile(src, tr)
	if w.err != nil {
		return
	}
	opts := core.DefaultOptions(procs)
	opts.Machine, opts.Insertion = core.SBM, core.Conservative
	tr.begin("core.schedule")
	w.sched, w.err = core.ScheduleDAG(w.prog.g, opts)
	tr.end()
	if w.err != nil {
		return
	}
	tr.begin("core.verify_static")
	w.verifyErr = w.sched.VerifyStatic()
	tr.end()
	tr.begin("core.export_json")
	w.js, w.err = w.sched.ExportJSON()
	tr.end()
}

func (w *largeBlocks) check(t *tally, memSeed int64) {
	const unit = "sbm/conservative"
	t.Attempted++
	if w.err != nil {
		t.fail(unit, w.err)
		return
	}
	if err := w.prog.checkEval(memSeed); err != nil {
		t.reject(unit, err)
		return
	}
	t.program(w.prog)
	if w.verifyErr != nil {
		t.reject(unit, w.verifyErr)
		return
	}
	// The op does not simulate; the check does, untimed, so the schedule
	// is held to the same dynamic checks as paper-sweep's.
	if err := simulate(w.sched, w.seeds, &w.sim, nil); err != nil {
		t.fail(unit, err)
		return
	}
	hi, err := checkSim(w.sched, &w.sim)
	if err != nil {
		t.reject(unit, err)
		return
	}
	var ex core.ExportedSchedule
	if err := json.Unmarshal(w.js, &ex); err != nil {
		t.reject(unit, fmt.Errorf("exported JSON: %w", err))
		return
	}
	if ex.Metrics.Barriers != w.sched.Metrics.Barriers || ex.SpanMax != hi {
		t.reject(unit, fmt.Errorf("export says %d barriers, span max %d; schedule has %d, %d",
			ex.Metrics.Barriers, ex.SpanMax, w.sched.Metrics.Barriers, hi))
		return
	}
	t.layer.exports++
	t.layer.exportBytes += int64(len(w.js))
	t.block(w.sched, hi, w.sim.finishes)
}

// pass is one measured walk over (part of) a workload's op list.
type pass struct {
	ops   []opTime // in completion order
	alloc uint64   // heap bytes allocated inside ops
	tally tally
	spans []span
}

// opTime is one op's latency and its completion time on the pass's
// clock: wall time for a concurrent pass, the running sum of op
// latencies for a library one, whose checks run off the clock.
type opTime struct{ Done, Lat time.Duration }

// opsPerSec is the median over the pass's segments of ops completed per
// second.
func (p *pass) opsPerSec() float64 {
	var rates []float64
	for _, s := range p.segments() {
		rates = append(rates, s.rate())
	}
	return median(rates)
}

// memSeed seeds op i's evaluation memory.
func memSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// measureLibrary runs srcs, which are the op list's ops first, first+1,
// …, timing each op alone: its checks run between ops, off the clock.
func measureLibrary(w libWorkload, srcs []string, seed int64, first int, tr *tracer) pass {
	heap := newHeapAllocs()
	p := pass{ops: make([]opTime, 0, len(srcs))}
	var busy time.Duration
	runtime.GC()
	for i, src := range srcs {
		op := first + i
		a0 := heap.read()
		t0 := time.Now()
		tr.beginOp(op, "bench.op")
		w.run(src, tr)
		tr.end()
		d := time.Since(t0)
		p.alloc += heap.read() - a0
		busy += d
		p.ops = append(p.ops, opTime{Done: busy, Lat: d})
		w.check(&p.tally, memSeed(seed, op))
	}
	if tr != nil {
		p.spans = tr.spans
	}
	return p
}

// prepareLibrary is a library workload's set-up: it generates the
// warm-up sources and those of ops [lo, hi), resets the workload and runs
// the warm-up ops with their checks. The warm-up's failures are not
// counted, but a wrong output there is returned in the tally.
func prepareLibrary(w libWorkload, rc runConfig, lo, hi int) ([]string, tally, error) {
	var t tally
	seeds := programSeeds(rc.seed, rc.warm+rc.ops)
	srcs, err := sources(w.stmts(), append(seeds[:rc.warm:rc.warm], seeds[rc.warm+lo:rc.warm+hi]...))
	if err != nil {
		return nil, t, err
	}
	w.reset()
	for i, src := range srcs[:rc.warm] {
		w.run(src, nil)
		w.check(&t, memSeed(rc.seed, -1-i))
	}
	return srcs[rc.warm:], tally{Wrong: t.Wrong}, nil
}
