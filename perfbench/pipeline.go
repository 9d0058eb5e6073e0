package main

import (
	"fmt"
	"math/rand"

	"barriermimd/internal/core"
	"barriermimd/internal/dag"
	"barriermimd/internal/ir"
	"barriermimd/internal/lang"
	"barriermimd/internal/machine"
	"barriermimd/internal/opt"
	"barriermimd/internal/synth"
)

// Every workload schedules synthetic programs of the paper's shape: 10
// variables, the Table 1 operator mix (synth's default), on 8 processors.
const (
	variables = 10
	procs     = 8
)

// programSeeds draws n distinct synth seeds from the workload seed. The
// warm-up set comes first, so it never shares a program with the timed set.
func programSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[int64]bool, n)
	out := make([]int64, 0, n)
	for len(out) < n {
		s := rng.Int63()
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// sources renders one program source per synth seed.
func sources(stmts int, seeds []int64) ([]string, error) {
	out := make([]string, len(seeds))
	for i, s := range seeds {
		p, err := synth.Generate(synth.Config{Statements: stmts, Variables: variables}, s)
		if err != nil {
			return nil, fmt.Errorf("generate program %d: %w", s, err)
		}
		out[i] = p.String()
	}
	return out, nil
}

// compiled is one source taken through the compile steps, kept for the
// checks.
type compiled struct {
	prog  *lang.Program
	naive *ir.Block
	block *ir.Block
	g     *dag.Graph
}

// compile runs source → AST → tuples → optimized tuples → instruction DAG,
// one span per call.
func compile(src string, tr *tracer) (compiled, error) {
	var c compiled
	var err error
	tr.begin("lang.parse")
	c.prog, err = lang.Parse(src)
	tr.end()
	if err != nil {
		return c, err
	}
	tr.begin("lang.lower")
	c.naive, err = lang.Compile(c.prog)
	tr.end()
	if err != nil {
		return c, err
	}
	tr.begin("opt.optimize")
	c.block, _, err = opt.Optimize(c.naive)
	tr.end()
	if err != nil {
		return c, err
	}
	tr.begin("dag.build")
	c.g, err = dag.Build(c.block, ir.DefaultTimings())
	tr.end()
	return c, err
}

// checkEval compares the optimized tuple block against the source AST's
// own evaluator on a memory seeded by memSeed.
func (c compiled) checkEval(memSeed int64) error {
	rng := rand.New(rand.NewSource(memSeed))
	mem := ir.Memory{}
	for _, v := range c.prog.Variables() {
		mem[v] = int64(rng.Intn(41) - 20)
	}
	want := c.prog.Eval(mem)
	got, err := c.block.Eval(mem)
	if err != nil {
		return fmt.Errorf("eval optimized block: %w", err)
	}
	for v, x := range want {
		if got[v] != x {
			return fmt.Errorf("optimized block leaves %s = %d, source gives %d", v, got[v], x)
		}
	}
	return nil
}

// simOut is what one schedule's simulation sweep produced.
type simOut struct {
	finishes             []int // random-policy sweep, one per seed
	minFinish, maxFinish int
	minCheck, maxCheck   error // CheckDependences of the min and max runs
}

// simulate lowers s to a plan, runs the random sweep over seeds into
// out.finishes, then min- and max-policy runs with their dependence
// checks.
func simulate(s *core.Schedule, seeds []int64, out *simOut, tr *tracer) error {
	tr.begin("machine.plan")
	plan, err := machine.Compile(s, s.Opts.Machine)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("machine.run_many")
	br, err := plan.RunMany(machine.Config{Policy: machine.RandomTimes}, seeds)
	tr.end()
	if err != nil {
		return err
	}
	out.finishes = append(out.finishes[:0], br.FinishTimes...)
	br.Release()
	if out.minFinish, out.minCheck, err = runChecked(plan, machine.MinTimes, tr); err != nil {
		return err
	}
	out.maxFinish, out.maxCheck, err = runChecked(plan, machine.MaxTimes, tr)
	return err
}

func runChecked(plan *machine.Plan, pol machine.Policy, tr *tracer) (finish int, check, err error) {
	tr.begin("machine.run")
	r, err := plan.Run(machine.Config{Policy: pol})
	tr.end()
	if err != nil {
		return 0, nil, err
	}
	tr.begin("machine.check")
	check = r.CheckDependences()
	tr.end()
	finish = r.FinishTime
	r.Release()
	return finish, check, nil
}

// checkSim verifies a sweep against the schedule's static window and
// returns that window's upper end.
func checkSim(s *core.Schedule, o *simOut) (staticMax int, err error) {
	if o.minCheck != nil {
		return 0, fmt.Errorf("min-policy run: %w", o.minCheck)
	}
	if o.maxCheck != nil {
		return 0, fmt.Errorf("max-policy run: %w", o.maxCheck)
	}
	lo, hi, err := s.StaticSpan()
	if err != nil {
		return 0, err
	}
	for _, f := range append([]int{o.minFinish, o.maxFinish}, o.finishes...) {
		if f < lo || f > hi {
			return 0, fmt.Errorf("simulated finish %d outside static span [%d, %d]", f, lo, hi)
		}
	}
	return hi, nil
}
