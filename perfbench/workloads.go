package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"barriermimd/internal/core"
	"barriermimd/internal/schedcache"
)

// workload is one named input set. rate is the op rate measured on the
// reference host (2-core Xeon, go1.24): it turns --seconds into a fixed
// op count, so a run is always the same op list, never a time budget.
type workload struct {
	name string
	why  string
	rate float64
	warm int // warm-up ops (requests for serve-hot), on programs the timed ops never see
	pass int // the op count is a multiple of this, so every segment is whole passes
	// shard sets the workload up in this process and runs ops [lo, hi)
	// of the op list untraced.
	shard func(rc runConfig, lo, hi int) (shardOut, error)
	// traced sets up once and runs the whole op list untraced, then
	// traced, in this process.
	traced func(rc runConfig) (*report, error)
}

var workloads = []workload{
	{
		name: "paper-sweep",
		// The researcher regenerating the paper's comparisons (bmexp with
		// -cache, plus bmsim's checks). Every layer at paper scale; no
		// program repeats, so every cache lookup misses and inserts, and
		// the cache evicts in steady state. Optimal insertion sets the
		// tail, and it is the only workload running scalar Plan.Run and
		// the known optimal-SBM failure.
		why:    "paper-scale 80-statement programs through every layer in all four SBM/DBM x conservative/optimal configurations; cache misses, scalar runs, optimal tail",
		rate:   94,
		warm:   24,
		pass:   1,
		shard:  libShard(newPaperSweep),
		traced: libTraced(newPaperSweep),
	},
	{
		name: "large-blocks",
		// The compiler user running bmsched -json on a big block.
		// Scheduling is about three quarters of an op and the merge pass
		// grows superlinearly here; no simulation and no cache, so those
		// layers do no work. 480 statements keeps an op near 45 ms, so a
		// run holds well over 100 ops a segment and each segment's p90
		// has ten samples beyond it.
		why:    "480-statement blocks scheduled, verified and exported as by bmsched -json, with no cache or simulation: scheduler scaling dominates",
		rate:   23.5,
		warm:   6,
		pass:   1,
		shard:  libShard(newLargeBlocks),
		traced: libTraced(newLargeBlocks),
	},
	{
		name: "serve-hot",
		// Service callers that each wait for a reply. After warm-up every
		// schedule is a cache hit, so the scheduler does no work while
		// re-parsing, fingerprinting, the coalescer, the 64-seed sweep and
		// JSON dominate: this is where a coalescer or parse change shows.
		why:    "closed loop of one client per core POSTing /v1/simulate (64 runs) over 256 programs to a warm in-process server: parse, coalescer, sweep and JSON dominate",
		rate:   870,
		warm:   96,
		pass:   segments * hotPrograms,
		shard:  hotShard,
		traced: hotTraced,
	},
}

func lookup(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runConfig fixes one invocation's inputs.
type runConfig struct {
	seed  int64
	ops   int
	warm  int
	trace bool
}

// opsFor sizes the op list for a run of about seconds on the reference
// host: whole passes, and never fewer ops than the p90 of the list and
// every segment's p50 need.
func (w *workload) opsFor(seconds int) int {
	n := max(int(float64(seconds)*w.rate+0.5), segments*minSamples(50), minSamples(90))
	return (n + w.pass - 1) / w.pass * w.pass
}

// shardOut is what one segment's process reports: its set-up time and
// the untraced pass over its ops.
type shardOut struct {
	Setup float64  `json:"setup_s"`
	Ops   []opTime `json:"ops"`
	Alloc uint64   `json:"alloc_b"`
	Tally tally    `json:"tally"`
}

func libShard(newW func() libWorkload) func(runConfig, int, int) (shardOut, error) {
	return func(rc runConfig, lo, hi int) (shardOut, error) {
		w := newW()
		start := time.Now()
		srcs, warm, err := prepareLibrary(w, rc, lo, hi)
		if err != nil {
			return shardOut{}, err
		}
		setup := time.Since(start).Seconds()
		p := measureLibrary(w, srcs, rc.seed, lo, nil)
		p.tally.add(warm)
		return shardOut{Setup: setup, Ops: p.ops, Alloc: p.alloc, Tally: p.tally}, nil
	}
}

func libTraced(newW func() libWorkload) func(runConfig) (*report, error) {
	return func(rc runConfig) (*report, error) {
		w := newW()
		srcs, warm, err := prepareLibrary(w, rc, 0, rc.ops)
		if err != nil {
			return nil, err
		}
		p := measureLibrary(w, srcs, rc.seed, 0, nil)

		// The traced pass runs the same op list from the same state.
		_, warm2, err := prepareLibrary(w, rc, 0, rc.ops)
		if err != nil {
			return nil, err
		}
		warm.add(warm2)
		before := counters{core.StageStats(), w.cacheStats()}
		tp := measureLibrary(w, srcs, rc.seed, 0, newTracer(time.Now()))
		after := counters{core.StageStats(), w.cacheStats()}
		m := layerMetrics(traced{ops: len(srcs), spans: tp.spans, tally: &tp.tally, sweepWidth: sweepSeeds})
		counterMetrics(m, len(srcs), before, after)
		return tracedReport(m, &p, &tp, warm), nil
	}
}

// tracedReport is a traced run's result: the layer metrics and the
// tracing overhead against the untraced pass p. Its counts are the
// traced pass's.
func tracedReport(m map[string]float64, p, tp *pass, warm tally) *report {
	m["bench.tracing_overhead_frac"] = 1 - tp.opsPerSec()/p.opsPerSec()
	return &report{
		correct:   len(warm.Wrong)+len(p.tally.Wrong)+len(tp.tally.Wrong) == 0,
		attempted: tp.tally.Attempted,
		failed:    tp.tally.Failed,
		metrics:   m,
		summary:   tp.tally.summary(),
		spans:     tp.spans,
	}
}

// hotClients is the serve-hot client count: one per core of the
// reference host, and never more than GOMAXPROCS.
func hotClients() int { return min(2, runtime.GOMAXPROCS(0)) }

// hotInputs generates the warm-up and timed programs and computes the
// library's answer to each. They are the benchmark's oracle, made
// outside set-up. Wrong outputs of the reference land in the tally.
func hotInputs(seed int64) ([]hotProgram, *schedcache.Cache, tally, error) {
	var t tally
	srcs, err := sources(hotStmts, programSeeds(seed, hotWarmPrograms+hotPrograms))
	if err != nil {
		return nil, nil, t, err
	}
	cache := schedcache.New(schedcache.DefaultCapacity)
	progs := make([]hotProgram, len(srcs))
	for i, src := range srcs {
		if progs[i], err = reference(src, cache, nil); err != nil {
			return nil, nil, t, fmt.Errorf("library reference: %w", err)
		}
		if err := progs[i].verify(memSeed(seed, i)); err != nil {
			t.reject("reference", err)
		}
	}
	return progs, cache, tally{Wrong: t.Wrong}, nil
}

// startHot is serve-hot's set-up: start the server and warm it with
// warm requests over the warm-up programs, then one request per timed
// program, so the timed run finds every schedule cached. Only wrong
// outputs of the warm-up are kept in the tally.
func startHot(all []hotProgram, warm int) (*hotServer, tally, error) {
	h, err := startServer(hotClients())
	if err != nil {
		return nil, tally{}, err
	}
	w := h.drive(all[:hotWarmPrograms], 0, warm, nil)
	prime := h.drive(all[hotWarmPrograms:], 0, hotPrograms, nil)
	return h, tally{Wrong: append(w.tally.Wrong, prime.tally.Wrong...)}, nil
}

func hotShard(rc runConfig, lo, hi int) (so shardOut, err error) {
	all, _, oracle, err := hotInputs(rc.seed)
	if err != nil {
		return so, err
	}
	start := time.Now()
	h, warm, err := startHot(all, rc.warm)
	if err != nil {
		return so, err
	}
	so.Setup = time.Since(start).Seconds()
	defer func() {
		if serr := h.stop(); serr != nil && err == nil {
			err = serr
		}
	}()
	p := h.drive(all[hotWarmPrograms:], lo, hi, nil)
	p.tally.add(oracle)
	p.tally.add(warm)
	so.Ops, so.Alloc, so.Tally = p.ops, p.alloc, p.tally
	return so, nil
}

func hotTraced(rc runConfig) (rep *report, err error) {
	all, cache, warm, err := hotInputs(rc.seed)
	if err != nil {
		return nil, err
	}
	h, w, err := startHot(all, rc.warm)
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := h.stop(); serr != nil && err == nil {
			err = serr
		}
	}()
	warm.add(w)
	progs := all[hotWarmPrograms:]
	p := h.drive(progs, 0, rc.ops, nil)

	before := counters{core.StageStats(), h.srv.Cache().Stats()}
	st0 := h.srv.Stats()
	epoch := time.Now()
	trs := make([]*tracer, h.clients)
	for i := range trs {
		trs[i] = newTracer(epoch)
	}
	tp := h.drive(progs, 0, rc.ops, trs)
	st1 := h.srv.Stats()
	after := counters{core.StageStats(), h.srv.Cache().Stats()}

	// The server's layers are out of the benchmark's reach, so the
	// library layers are timed on a replay of the same requests through
	// the server's per-request path: compile, fingerprint, a cache hit,
	// plan, sweep and rendering.
	const replayPasses = 2
	rt := newTracer(epoch)
	var rtally tally
	for r := 0; r < replayPasses; r++ {
		for j := range progs {
			rt.beginOp(r*len(progs)+j, "bench.op")
			hp, err := reference(progs[j].src, cache, rt)
			rt.end()
			switch {
			case err != nil:
				rtally.fail("replay", err)
			case !bytes.Equal(hp.want, progs[j].want):
				rtally.reject("replay", fmt.Errorf("replayed answer differs:\n got %s want %s", hp.want, progs[j].want))
			default:
				rtally.program(hp.prog)
				rtally.block(hp.sched, progs[j].staticMax, hp.finishes)
			}
		}
	}
	m := layerMetrics(traced{ops: replayPasses * len(progs), spans: rt.spans, tally: &rtally, sweepWidth: hotRuns})
	counterMetrics(m, rc.ops, before, after)
	lat, wait, batch := histDelta(st1.Latency, st0.Latency), histDelta(st1.CoalesceWait, st0.CoalesceWait),
		histDelta(st1.BatchSize, st0.BatchSize)
	var client time.Duration
	for _, o := range tp.ops {
		client += o.Lat
	}
	m["serve.server_us"] = lat / 1e3
	m["serve.http_overhead_us"] = (float64(client)/float64(len(tp.ops)) - lat) / 1e3
	m["serve.coalesce_wait_us"] = wait / 1e3
	m["serve.batch_mean"] = batch
	m["serve.shared_frac"] = ratio(float64(st1.SharedResponses-st0.SharedResponses), float64(st1.Ok-st0.Ok))
	warm.add(rtally)
	rep = tracedReport(m, &p, &tp, warm)
	rep.spans = appendSpans(tp.spans, rt.spans)
	return rep, nil
}
