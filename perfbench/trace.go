package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"
)

// heapAllocs reads the process's cumulative heap allocation in bytes —
// the counter behind runtime.MemStats.TotalAlloc — through runtime/metrics,
// which does not stop the world.
type heapAllocs struct{ sample []metrics.Sample }

func newHeapAllocs() *heapAllocs {
	return &heapAllocs{sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (h *heapAllocs) read() uint64 {
	metrics.Read(h.sample)
	return h.sample[0].Value.Uint64()
}

// span is one timed call the benchmark made into a layer of the program.
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"` // index of the enclosing span, -1 for an op's root
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Alloc  uint64        `json:"alloc_b"` // heap bytes allocated while the span was open
}

// tracer records spans in memory for one goroutine. A nil *tracer records
// nothing, so the untraced run passes nil and pays one nil check per call.
type tracer struct {
	epoch time.Time
	heap  *heapAllocs
	op    int
	spans []span
	open  []int
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, heap: newHeapAllocs()}
}

// beginOp opens op i's root span; every span until the matching end
// belongs to op i.
func (t *tracer) beginOp(i int, name string) {
	if t == nil {
		return
	}
	t.op = i
	t.begin(name)
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent,
		Start: time.Since(t.epoch), Alloc: t.heap.read()})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	s.End = time.Since(t.epoch)
	s.Alloc = t.heap.read() - s.Alloc
}

// appendSpans appends src to dst, keeping src's parent links.
func appendSpans(dst, src []span) []span {
	off := len(dst)
	for _, s := range src {
		if s.Parent >= 0 {
			s.Parent += off
		}
		dst = append(dst, s)
	}
	return dst
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its child spans. Children are clipped to the parent and
// overlapping children are counted once.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s, spans, children[i])
	}
	return self
}

// covered is the length of the union of the child intervals inside p.
func covered(p span, spans []span, kids []int) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, p.Start), min(spans[k].End, p.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo > cur.hi:
			total += cur.hi - cur.lo
			cur = v
		case v.hi > cur.hi:
			cur.hi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// layerTotals sums self time and allocation per span name.
type layerTotals struct {
	self  map[string]time.Duration
	alloc map[string]uint64
	calls map[string]int
}

func totalsOf(spans []span) layerTotals {
	lt := layerTotals{self: map[string]time.Duration{}, alloc: map[string]uint64{}, calls: map[string]int{}}
	for i, d := range selfTimes(spans) {
		name := spans[i].Name
		lt.self[name] += d
		lt.alloc[name] += spans[i].Alloc
		lt.calls[name]++
	}
	return lt
}

// writeSpans writes the provenance and then one JSON object per span,
// with its self time, to path.
func writeSpans(path string, prov provenance, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]provenance{"provenance": prov}); err != nil {
		f.Close()
		return err
	}
	self := selfTimes(spans)
	for i, s := range spans {
		if err := enc.Encode(struct {
			span
			Self time.Duration `json:"self_ns"`
		}{s, self[i]}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
