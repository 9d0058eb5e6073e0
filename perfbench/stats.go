package main

import (
	"fmt"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a percentile for
// it to be reported: fewer, and one slow op moves it.
const minTail = 10

// percentile returns the nearest-rank pct-th percentile of sorted
// (ascending) and an error when fewer than minTail samples lie beyond it.
func percentile(sorted []float64, pct int) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%d of no samples", pct)
	}
	rank := (pct*n + 99) / 100 // ceil(pct/100 · n), 1-based
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%d of %d samples has %d beyond it, need %d", pct, n, beyond, minTail)
	}
	return sorted[rank-1], nil
}

// minSamples is the smallest sample count for which percentile(pct)
// keeps minTail samples beyond it.
func minSamples(pct int) int {
	n := 1
	for n-(pct*n+99)/100 < minTail {
		n++
	}
	return n
}

// segments is how many consecutive, equal parts the op list is cut into.
// An untraced run measures each part in a process of its own and reports
// the median over the parts, which shrugs off a slow process or a burst
// of load from elsewhere on the host.
const segments = 10

// segment is a consecutive run of a pass's ops, with the completion
// time of the op before it.
type segment struct {
	from time.Duration
	ops  []opTime
}

func (s segment) rate() float64 {
	return float64(len(s.ops)) / (s.ops[len(s.ops)-1].Done - s.from).Seconds()
}

// segmentBounds is segment k's op range [lo, hi) in a list of n ops.
func segmentBounds(n, k int) (lo, hi int) { return k * n / segments, (k + 1) * n / segments }

func (p *pass) segments() []segment {
	out := make([]segment, segments)
	for k := range out {
		lo, hi := segmentBounds(len(p.ops), k)
		if lo > 0 {
			out[k].from = p.ops[lo-1].Done
		}
		out[k].ops = p.ops[lo:hi]
	}
	return out
}

// median of xs; xs is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
