package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"barriermimd/internal/core"
	"barriermimd/internal/machine"
	"barriermimd/internal/schedcache"
	"barriermimd/internal/serve"
)

const (
	// hotPrograms distinct programs are cycled by the timed requests and
	// hotWarmPrograms others by the warm-up. The schedule-quality counts
	// of the served programs swung 19-29% between seeds with 4 programs
	// and 11-12% with 64; 256 keep them steady and still fit the default
	// cache, so every lookup hits.
	hotPrograms     = 256
	hotWarmPrograms = 8
	hotRuns         = 64 // simulated runs per request
	hotReqSeed      = 7  // scheduler tie-break and simulation base seed of every request
	hotStmts        = 80
)

// hotProgram is one request and the library's answer to it.
type hotProgram struct {
	src       string
	body      []byte // the request
	want      []byte // the response the library gives for it
	prog      compiled
	sched     *core.Schedule
	plan      *machine.Plan
	staticMax int
	finishes  []int
}

// reference computes the /v1/simulate answer for src with library calls
// only: the server's per-request path (compile, fingerprint, schedule
// through a cache, plan, sweep) followed by the documented response
// rendering.
func reference(src string, cache *schedcache.Cache, tr *tracer) (hotProgram, error) {
	hp := hotProgram{src: src}
	var err error
	if hp.prog, err = compile(src, tr); err != nil {
		return hp, err
	}
	opts := core.DefaultOptions(procs)
	opts.Machine, opts.Insertion, opts.Seed, opts.Cache = core.SBM, core.Conservative, hotReqSeed, cache
	tr.begin("schedcache.fingerprint")
	cache.Fingerprint(hp.prog.g)
	tr.end()
	tr.begin("core.schedule")
	hp.sched, err = core.ScheduleDAG(hp.prog.g, opts)
	tr.end()
	if err != nil {
		return hp, err
	}
	seeds := make([]int64, hotRuns)
	for i := range seeds {
		seeds[i] = hotReqSeed + int64(i)
	}
	tr.begin("machine.plan")
	hp.plan, err = machine.Compile(hp.sched, core.SBM)
	tr.end()
	if err != nil {
		return hp, err
	}
	tr.begin("machine.run_many")
	br, err := hp.plan.RunMany(machine.Config{Policy: machine.RandomTimes}, seeds)
	tr.end()
	if err != nil {
		return hp, err
	}
	hp.finishes = append([]int(nil), br.FinishTimes...)
	br.Release()
	if hp.want, err = renderSim(hp.finishes); err != nil {
		return hp, err
	}
	hp.body, err = json.Marshal(serve.Request{Src: src, Procs: procs, Seed: hotReqSeed, Runs: hotRuns})
	return hp, err
}

// verify holds the reference itself to the benchmark's checks: the
// optimizer against the source, the static verifier, and min/max runs
// and the sweep against the static window.
func (hp *hotProgram) verify(memSeed int64) error {
	if err := hp.prog.checkEval(memSeed); err != nil {
		return err
	}
	if err := hp.sched.VerifyStatic(); err != nil {
		return err
	}
	sim := simOut{finishes: hp.finishes}
	var err error
	if sim.minFinish, sim.minCheck, err = runChecked(hp.plan, machine.MinTimes, nil); err != nil {
		return err
	}
	if sim.maxFinish, sim.maxCheck, err = runChecked(hp.plan, machine.MaxTimes, nil); err != nil {
		return err
	}
	hp.staticMax, err = checkSim(hp.sched, &sim)
	return err
}

// renderSim is the /v1/simulate response body for a sweep, as the API
// documents it: serve.SimResult with population statistics, one JSON
// line.
func renderSim(finishes []int) ([]byte, error) {
	res := serve.SimResult{FinishTimes: finishes, Min: finishes[0], Max: finishes[0]}
	sum := 0
	for _, f := range finishes {
		res.Min, res.Max = min(res.Min, f), max(res.Max, f)
		sum += f
	}
	res.Mean = float64(sum) / float64(len(finishes))
	var sq float64
	for _, f := range finishes {
		d := float64(f) - res.Mean
		sq += d * d
	}
	if len(finishes) > 1 {
		res.Stddev = math.Sqrt(sq / float64(len(finishes)))
	}
	b, err := json.Marshal(res)
	return append(b, '\n'), err
}

// hotServer is an in-process serve.Server with the default config on a
// loopback listener, and a client pool of one connection per client.
type hotServer struct {
	srv     *serve.Server
	hs      *http.Server
	url     string
	client  *http.Client
	clients int
	served  chan error
}

func startServer(clients int) (*hotServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &hotServer{
		srv:     serve.New(serve.Config{}),
		url:     "http://" + ln.Addr().String() + "/v1/simulate",
		clients: clients,
		served:  make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
			DisableCompression:  true,
		}},
	}
	h.hs = &http.Server{Handler: h.srv.Handler()}
	go func() { h.served <- h.hs.Serve(ln) }()
	return h, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (h *hotServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	h.client.CloseIdleConnections()
	return err
}

func (h *hotServer) post(body []byte) (int, []byte, error) {
	resp, err := h.client.Post(h.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, err
}

// drive sends requests lo, lo+1, …, hi-1 in a closed loop from
// h.clients goroutines, request i carrying progs[i % len(progs)], and
// checks every response against the library's answer. trs, when non-nil,
// holds one tracer per client.
func (h *hotServer) drive(progs []hotProgram, lo, hi int, trs []*tracer) pass {
	heap := newHeapAllocs()
	var next atomic.Int64
	next.Store(int64(lo))
	ops := make([][]opTime, h.clients)
	tallies := make([]tally, h.clients)
	var wg sync.WaitGroup
	runtime.GC()
	a0 := heap.read()
	start := time.Now()
	for c := 0; c < h.clients; c++ {
		var tr *tracer
		if trs != nil {
			tr = trs[c]
		}
		wg.Add(1)
		go func(c int, tr *tracer) {
			defer wg.Done()
			t := &tallies[c]
			for {
				i := int(next.Add(1) - 1)
				if i >= hi {
					return
				}
				p := &progs[i%len(progs)]
				tr.beginOp(i, "serve.request")
				t0 := time.Now()
				status, body, err := h.post(p.body)
				d := time.Since(t0)
				tr.end()
				ops[c] = append(ops[c], opTime{Done: time.Since(start), Lat: d})
				t.Attempted++
				switch {
				case err != nil:
					t.fail("request", err)
				case status != http.StatusOK:
					t.fail("request", fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body)))
				case !bytes.Equal(body, p.want):
					t.reject("request", fmt.Errorf("response differs from the library result:\n got %s want %s", body, p.want))
				default:
					t.block(p.sched, p.staticMax, p.finishes)
				}
			}
		}(c, tr)
	}
	wg.Wait()
	p := pass{alloc: heap.read() - a0}
	for c := range ops {
		p.ops = append(p.ops, ops[c]...)
		p.tally.add(tallies[c])
		if trs != nil {
			p.spans = appendSpans(p.spans, trs[c].spans)
		}
	}
	slices.SortFunc(p.ops, func(a, b opTime) int { return cmp.Compare(a.Done, b.Done) })
	return p
}
