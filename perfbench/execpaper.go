package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/polypipe"
)

// exec-paper runs the paper's programs pipelined on 2 workers through
// Session.Run, again and again: Table 9 P4, P7 and P10 with
// multi-precision bodies and the 3-deep gmm and nmm chains of Figure 11
// with float bodies. The count is odd and the run times of the middle
// program stand apart from its neighbours', so the median run lands
// inside one program's times rather than between two.
// Detection and compilation are paid once, in set-up, so the time goes
// to statement bodies and the runtime's scheduling on real cores.
var execPrograms = []struct {
	label string
	build func() (*kernels.Program, error)
}{
	{"P4/n=20", func() (*kernels.Program, error) { return kernels.Table9Program("P4", 20, 2) }},
	{"P7/n=16", func() (*kernels.Program, error) { return kernels.Table9Program("P7", 16, 2) }},
	{"P10/n=24", func() (*kernels.Program, error) { return kernels.Table9Program("P10", 24, 2) }},
	{"3gmm/rows=192", func() (*kernels.Program, error) { return kernels.MMChain(3, 192, kernels.GMM), nil }},
	{"3nmm/rows=192", func() (*kernels.Program, error) { return kernels.MMChain(3, 192, kernels.MM), nil }},
}

// execWorkers is the pipelined worker count: one per CPU of the
// 2-CPU hosts the benchmark is tuned on.
const execWorkers = 2

type execState struct {
	sess  *polypipe.Session
	progs []*kernels.Program
	tasks []int // pipeline tasks per program, from the set-up run
}

func runExecPaper(e *env) (*report, error) {
	rep := newReport()
	var setupTasks []int64
	st, setup, err := timedSetups(func() (*execState, error) {
		s := &execState{sess: polypipe.NewSession(polypipe.WithWorkers(execWorkers))}
		var total int64
		for _, ep := range execPrograms {
			p, err := ep.build()
			if err != nil {
				s.sess.Close()
				return nil, err
			}
			r, err := s.sess.Run(polypipe.ModePipelined, p)
			if err != nil {
				s.sess.Close()
				return nil, fmt.Errorf("%s: %w", ep.label, err)
			}
			s.progs = append(s.progs, p)
			s.tasks = append(s.tasks, r.Tasks)
			total += int64(r.Tasks)
		}
		setupTasks = append(setupTasks, total)
		return s, nil
	}, func(s *execState) { s.sess.Close() })
	if err != nil {
		return nil, err
	}
	defer st.sess.Close()
	rep.metrics["setup_s"] = setup
	sameCounts(rep, "pipeline tasks", setupTasks)

	// The reference is the sequential executor, never the pipeline.
	refs := make([]uint64, len(st.progs))
	for i, p := range st.progs {
		refs[i] = exec.Sequential(p).Hash
	}

	// The seed orders the programs within each pass.
	rng := rand.New(rand.NewSource(e.seed))
	budget := e.budget
	if e.traced {
		budget /= 2
	}
	var passes, rates, lats []float64
	ws := openWindows()
	gc := gcStart()
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < budget {
		m, passStart := markSteal(), time.Now()
		for _, i := range rng.Perm(len(st.progs)) {
			t0 := time.Now()
			r, err := st.sess.Run(polypipe.ModePipelined, st.progs[i])
			d := time.Since(t0)
			rep.attempted++
			switch {
			case err != nil:
				rep.fail("%s: %v", execPrograms[i].label, err)
			case r.Hash != refs[i]:
				rep.fail("%s: pipelined hash %x, sequential %x", execPrograms[i].label, r.Hash, refs[i])
			case r.Tasks != st.tasks[i]:
				rep.fail("%s: %d tasks, set-up ran %d", execPrograms[i].label, r.Tasks, st.tasks[i])
			}
			lats = append(lats, ms(d))
		}
		pass := time.Since(passStart).Seconds()
		ws.close(m.stolenUntil(markSteal()))
		passes = append(passes, pass)
		rates = append(rates, float64(len(st.progs))/pass)
	}
	gc.stop(rep.metrics)
	rep.metrics["run_pass_s"] = ws.times(passes)
	rep.metrics["raw.run_pass_s"] = quietMedian(passes, ws.stolen)
	rep.metrics["throughput_rps"] = ws.rates(rates)
	rep.metrics["latency_p50_ms"], rep.metrics["latency_p90_ms"] = ws.quantiles(lats, len(st.progs))
	rep.metrics["raw.latency_p50_ms"], _ = quietQuantiles(lats, len(st.progs), ws.stolen)
	rep.count("core.blocks", setupTasks[0])

	if e.traced {
		if err := traceExec(e, rep, st, refs, rng, budget, rep.metrics["raw.latency_p50_ms"]); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// traceExec is the traced phase of exec-paper. It compiles each
// program through the layers Session.Run uses (core.Detect,
// codegen.CompileWithOptions, TaskProgram.Lower) and then runs passes
// in which each run is (*runtime.Program).Execute under a span,
// followed by exec.Sequential on the same program for the body busy
// time the speed-up and utilization are computed from.
func traceExec(e *env, rep *report, st *execState, refs []uint64, rng *rand.Rand, budget time.Duration, untracedP50 float64) error {
	reg := obs.NewRegistry()
	rec := &obs.Recorder{Reg: reg, Phases: &obs.Phases{}}
	rts := make([]*runtime.Program, len(st.progs))
	for i, p := range st.progs {
		info, err := core.Detect(p.SCoP, core.Options{Workers: execWorkers})
		if err != nil {
			return err
		}
		tp, err := codegen.CompileWithOptions(info, codegen.CompileOptions{Obs: rec})
		if err != nil {
			return err
		}
		rts[i] = tp.Lower()
	}
	rep.count("codegen.tasks", reg.Snapshot().Counter("codegen.tasks"))

	tr := &tracer{}
	l := tr.lane()
	var rs runtimeStats
	var seqBusy, execBusy time.Duration
	start := time.Now()
	for passes := 0; passes == 0 || time.Since(start) < budget; passes++ {
		for _, i := range rng.Perm(len(st.progs)) {
			p := st.progs[i]
			op := tr.newOp()
			root := l.begin("run", op, 0)
			p.Reset()
			var es runtime.ExecStats
			execBusy += l.call("runtime.execute", op, root.id, func() {
				es = rts[i].Execute(execWorkers, runtime.ExecOptions{Reg: reg})
			})
			h := p.Hash()
			l.end(root)
			rs.add(es)
			var seq exec.Result
			seqBusy += l.call("exec.sequential", op, 0, func() { seq = exec.Sequential(p) })
			rep.attempted += 2
			if h != refs[i] {
				rep.fail("%s: traced pipelined hash %x, sequential %x", execPrograms[i].label, h, refs[i])
			}
			if seq.Hash != refs[i] {
				rep.fail("%s: sequential hash %x changed from %x", execPrograms[i].label, seq.Hash, refs[i])
			}
		}
	}
	spans := tr.all()
	ops := int(tr.ops.Load())
	perOpMetrics(rep.metrics, spans, ops, "runtime.execute", "exec.sequential")
	rs.report(rep.metrics, reg, execBusy, ops)
	rep.metrics["runtime.utilization"] = float64(seqBusy) / float64(execWorkers*execBusy)
	rep.metrics["exec.speedup"] = float64(seqBusy) / float64(execBusy)
	if untracedP50 > 0 {
		rep.metrics["trace.overhead_pct"] = 100 * (quantile(spanDurations(spans, "run"), 0.5) - untracedP50) / untracedP50
	}
	if err := tr.write(fmt.Sprintf("%s/trace/%s-seed%d.json", e.scratch, e.name, e.seed)); err != nil {
		rep.problem("write trace: %v", err)
	}
	return nil
}

// runtimeStats accumulates what the compiled executor reports over
// the traced runs.
type runtimeStats struct {
	executed int64
	maxConc  int
}

func (r *runtimeStats) add(st runtime.ExecStats) {
	r.executed += int64(st.Executed)
	if st.MaxConcurrent > r.maxConc {
		r.maxConc = st.MaxConcurrent
	}
}

// report writes the runtime.* metrics: time per task, steals and
// chain-fused edges per run (from the runtime.* registry counters),
// and the highest concurrency any run reached.
func (r *runtimeStats) report(m map[string]float64, reg *obs.Registry, busy time.Duration, runs int) {
	snap := reg.Snapshot()
	if r.executed > 0 {
		m["runtime.us_per_task"] = float64(busy.Nanoseconds()) / 1e3 / float64(r.executed)
	}
	if runs > 0 {
		m["runtime.steals"] = float64(snap.Counter("runtime.steal_count")) / float64(runs)
		m["runtime.chain_fused"] = float64(snap.Counter("runtime.chain_fused")) / float64(runs)
	}
	m["runtime.max_concurrent"] = float64(r.maxConc)
}
