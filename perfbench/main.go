// Command perfbench is the repository's benchmark: it runs one named
// workload as a fixed list of ops, checks every op's output, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics of a
// traced pass) as one JSON object on the last line of standard output.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 25 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and the rules
// that keep runs comparable.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: paper-sweep, large-blocks or serve-hot")
	seed := fl.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fl.Int("seconds", 25, "approximate length of the timed pass on the reference host; sizes the op list")
	trace := fl.Int("trace", 0, "1 reports the per-layer metrics of a traced pass instead of the end-to-end metrics")
	spansOut := fl.String("spans", "", "where a traced run writes its spans (default .bench_build/spans/<workload>-<seed>.jsonl)")
	shard := fl.Int("shard", -1, "internal: run only this segment of the op list and print its raw result")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w := lookup(*name)
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "perfbench: -seconds = %d, need >= 1\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: -trace = %d, need 0 or 1\n", *trace)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	rc := runConfig{seed: *seed, ops: w.opsFor(*seconds), warm: w.warm, trace: *trace == 1}
	if *shard >= 0 {
		if *shard >= segments || rc.trace {
			fmt.Fprintf(stderr, "perfbench: -shard = %d, need an untraced segment below %d\n", *shard, segments)
			return 2
		}
		lo, hi := segmentBounds(rc.ops, *shard)
		so, err := w.shard(rc, lo, hi)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s segment %d: %v\n", w.name, *shard, err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(so); err != nil {
			return 1
		}
		return 0
	}
	var rep *report
	var err error
	if rc.trace {
		rep, err = w.traced(rc)
	} else {
		rep, err = runShards(w, rc, *seconds, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	prov := newProvenance(w, rc)
	defs := endToEnd
	if rc.trace {
		defs = perLayer
		path := *spansOut
		if path == "" {
			path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", w.name, rc.seed))
		}
		if err := writeSpans(path, prov, rep.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", len(rep.spans), path)
	}
	out, err := rep.render(defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "perfbench: %s seed %d: %d ops: %s\n", w.name, rc.seed, rc.ops, rep.summary)
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]provenance{"provenance": prov}); err != nil {
		return 1
	}
	if err := enc.Encode(out); err != nil {
		return 1
	}
	return 0
}

// runShards runs each segment of the op list in a child process of its
// own, one after another, and combines them. Two passes in one process
// agree within 2-3%, but separate processes on the reference host differ
// by up to ±10%, so the median over processes is what makes a run repeat.
func runShards(w *workload, rc runConfig, seconds int, stderr io.Writer) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var segs []segment
	var setup []float64
	var alloc uint64
	var t tally
	for k := 0; k < segments; k++ {
		cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatInt(rc.seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", "0", "--shard", strconv.Itoa(k))
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", k, err)
		}
		var so shardOut
		if err := json.Unmarshal(out, &so); err != nil {
			return nil, fmt.Errorf("segment %d: %w", k, err)
		}
		segs = append(segs, segment{ops: so.Ops})
		setup = append(setup, so.Setup)
		alloc += so.Alloc
		t.add(so.Tally)
	}
	m, err := endToEndMetrics(segs, alloc, &t)
	if err != nil {
		return nil, err
	}
	m["setup_s"] = median(setup)
	return &report{
		correct:   len(t.Wrong) == 0,
		attempted: t.Attempted,
		failed:    t.Failed,
		metrics:   m,
		summary:   t.summary(),
	}, nil
}

// provenance identifies what was measured, where.
type provenance struct {
	Workload   string `json:"workload"`
	Why        string `json:"why"`
	Seed       int64  `json:"seed"`
	Ops        int    `json:"ops"`
	WarmupOps  int    `json:"warmup_ops"`
	Segments   int    `json:"segments"`
	Traced     bool   `json:"traced"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

func newProvenance(w *workload, rc runConfig) provenance {
	return provenance{
		Workload:   w.name,
		Why:        w.why,
		Seed:       rc.seed,
		Ops:        rc.ops,
		WarmupOps:  rc.warm,
		Segments:   segments,
		Traced:     rc.trace,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Source:     sourceDigest("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the binary was built from, when it was built
// inside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// sourceDigest hashes the Go sources and go.mod files under root, so a
// result identifies the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
