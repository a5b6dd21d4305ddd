package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
	runexec "repro/internal/exec"
	"repro/internal/gogen"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/polypipe"
)

// dsl-aot is the only workload where the DSL front end, code
// generation, the IR passes and the Go printer do the work. Each
// program of the corpus goes, from a fresh session, through
//
//	DSL text → verified hash (Session.Run, pipelined),
//	DSL text → Go source (Session.EmitGo),
//	the emitted binary, built once in set-up, run with aotReps.
//
// The bodies are cheap, so task overhead rather than compute dominates
// execution.

// dslListings are the paper listings bound at larger sizes than the
// fixed examples, kept where `go build` of the emitted source stays a
// small part of a run. With the four examples the corpus has seven
// programs: an odd count, so the median program time is one program's.
var dslListings = []struct {
	file string
	n    int
}{
	{"perfbench/dsl/listing1.loop", 32},
	{"perfbench/dsl/listing1.loop", 64},
	{"perfbench/dsl/listing3.loop", 48},
}

// aotReps is the pipelined repetition count handed to every emitted
// binary.
const aotReps = 20

type dslProg struct {
	name   string
	src    string
	params map[string]int
}

func (p dslProg) parse() (*polypipe.SCoP, error) {
	return lang.ParseWithParams(p.name, p.src, p.params)
}

// dslCorpus reads examples/dsl and the parameterized listings.
func dslCorpus() ([]dslProg, error) {
	files, err := filepath.Glob(filepath.Join("examples", "dsl", "*.loop"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no programs under examples/dsl (run from the checkout root)")
	}
	sort.Strings(files)
	var out []dslProg
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		out = append(out, dslProg{name: strings.TrimSuffix(filepath.Base(f), ".loop"), src: string(data)})
	}
	for _, l := range dslListings {
		data, err := os.ReadFile(l.file)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("%s_n%d", strings.TrimSuffix(filepath.Base(l.file), ".loop"), l.n)
		out = append(out, dslProg{name: name, src: string(data), params: map[string]int{"N": l.n}})
	}
	return out, nil
}

type dslState struct {
	progs []dslProg
	src   []string // emitted source per program
	sum   []string // its sha256
}

// emitAll emits every program through a fresh session, as one pass of
// the workload does.
func emitAll(progs []dslProg) (*dslState, error) {
	st := &dslState{progs: progs}
	for _, p := range progs {
		sc, err := p.parse()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		sess := polypipe.NewSession(polypipe.WithWorkers(execWorkers))
		var b strings.Builder
		err = sess.EmitGo(&b, sc, polypipe.EmitOptions{Workers: execWorkers})
		sess.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: emit: %w", p.name, err)
		}
		h := sha256.Sum256([]byte(b.String()))
		st.src = append(st.src, b.String())
		st.sum = append(st.sum, hex.EncodeToString(h[:]))
	}
	return st, nil
}

// binDir is where the binary emitted for program i lives; the
// directory is keyed by the source hash, so a changed program gets a
// fresh build.
func (s *dslState) binDir(scratch string, i int) string {
	return filepath.Join(scratch, "aot", s.progs[i].name+"-"+s.sum[i][:16])
}

// build writes each emitted program as its own module and builds it
// with the Go toolchain; it returns the total build time. The source
// is removed after the build, so no unformatted generated Go file
// stays in the checkout for gofmt to find.
func (s *dslState) build(scratch string) (time.Duration, error) {
	var total time.Duration
	for i := range s.progs {
		dir := s.binDir(scratch, i)
		src := filepath.Join(dir, "main.go")
		if err := writeFile(src, []byte(s.src[i])); err != nil {
			return 0, err
		}
		if err := writeFile(filepath.Join(dir, "go.mod"), []byte("module aotprog\n\ngo 1.22\n")); err != nil {
			return 0, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		cmd := exec.CommandContext(ctx, "go", "build", "-o", "prog", ".")
		cmd.Dir = dir
		start := time.Now()
		out, err := cmd.CombinedOutput()
		cancel()
		total += time.Since(start)
		if rmErr := os.Remove(src); err == nil && rmErr != nil {
			err = rmErr
		}
		if err != nil {
			return 0, fmt.Errorf("%s: go build: %v\n%s", s.progs[i].name, err, out)
		}
	}
	return total, nil
}

// runBinary runs the emitted binary of program i on execWorkers
// workers and returns the hash and task count it prints. The binary
// itself checks its pipelined result against its sequential one on
// every repetition and exits non-zero on a mismatch.
func (s *dslState) runBinary(scratch string, i int) (hash uint64, tasks int, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(s.binDir(scratch, i), "prog"),
		strconv.Itoa(execWorkers), strconv.Itoa(aotReps))
	out, err := cmd.Output()
	if err != nil {
		return 0, 0, fmt.Errorf("emitted binary: %v: %.200s", err, out)
	}
	if _, err := fmt.Sscanf(strings.TrimSpace(string(out)), "ok hash=%x tasks=%d", &hash, &tasks); err != nil {
		return 0, 0, fmt.Errorf("emitted binary printed %q: %v", out, err)
	}
	return hash, tasks, nil
}

func runDSLAOT(e *env) (*report, error) {
	rep := newReport()
	var setupBytes []int64
	st, setup, err := timedSetups(func() (*dslState, error) {
		progs, err := dslCorpus()
		if err != nil {
			return nil, err
		}
		s, err := emitAll(progs)
		if err != nil {
			return nil, err
		}
		var n int64
		for _, src := range s.src {
			n += int64(len(src))
		}
		setupBytes = append(setupBytes, n)
		return s, nil
	}, func(*dslState) {})
	if err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = setup
	sameCounts(rep, "emitted source bytes", setupBytes)
	buildTime, err := st.build(e.scratch)
	if err != nil {
		return nil, err
	}
	rep.metrics["aot.go_build_s"] = buildTime.Seconds()

	// The reference is the interpreter's sequential hash, never the
	// compiler under test.
	refs := make([]uint64, len(st.progs))
	for i, p := range st.progs {
		sc, err := p.parse()
		if err != nil {
			return nil, err
		}
		refs[i] = runexec.Sequential(interp.Programify(sc)).Hash
	}

	rng := rand.New(rand.NewSource(e.seed))
	budget := e.budget
	if e.traced {
		budget /= 2
	}
	var passes, rates, runPass, compilePass, aotPass, lats []float64
	tasks := make([]int, len(st.progs))
	irTasks := make([]int, len(st.progs))
	ws := openWindows()
	gc := gcStart()
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < budget {
		var run, comp, aot time.Duration
		m := markSteal()
		for _, i := range rng.Perm(len(st.progs)) {
			p := st.progs[i]
			rep.attempted += 3
			t0 := time.Now()
			sess := polypipe.NewSession(polypipe.WithWorkers(execWorkers))
			sc, err := p.parse()
			var r polypipe.Result
			if err == nil {
				r, err = sess.Run(polypipe.ModePipelined, polypipe.Interpret(sc))
			}
			t1 := time.Now()
			switch {
			case err != nil:
				rep.fail("%s: run: %v", p.name, err)
			case r.Hash != refs[i]:
				rep.fail("%s: pipelined hash %x, interpreter %x", p.name, r.Hash, refs[i])
			case tasks[i] != 0 && r.Tasks != tasks[i]:
				rep.fail("%s: %d pipeline tasks, earlier pass ran %d", p.name, r.Tasks, tasks[i])
			default:
				tasks[i] = r.Tasks
			}

			var b strings.Builder
			sc, err = p.parse()
			if err == nil {
				err = sess.EmitGo(&b, sc, polypipe.EmitOptions{Workers: execWorkers})
			}
			t2 := time.Now()
			sess.Close()
			if err != nil {
				rep.fail("%s: emit: %v", p.name, err)
			} else if h := sha256.Sum256([]byte(b.String())); hex.EncodeToString(h[:]) != st.sum[i] {
				rep.fail("%s: emitted source differs from the set-up emission of the same program", p.name)
			}

			t3 := time.Now()
			hash, n, err := st.runBinary(e.scratch, i)
			t4 := time.Now()
			switch {
			case err != nil:
				rep.fail("%s: %v", p.name, err)
			case hash != refs[i]:
				rep.fail("%s: emitted binary hash %x, interpreter %x", p.name, hash, refs[i])
			case irTasks[i] != 0 && n != irTasks[i]:
				rep.fail("%s: emitted binary ran %d tasks, earlier pass %d", p.name, n, irTasks[i])
			default:
				irTasks[i] = n
			}
			run += t1.Sub(t0)
			comp += t2.Sub(t1)
			aot += t4.Sub(t3)
			lats = append(lats, ms(t1.Sub(t0)+t2.Sub(t1)+t4.Sub(t3)))
		}
		pass := (run + comp + aot).Seconds()
		ws.close(m.stolenUntil(markSteal()))
		passes = append(passes, pass)
		rates = append(rates, float64(len(st.progs))/pass)
		runPass = append(runPass, run.Seconds())
		compilePass = append(compilePass, comp.Seconds())
		aotPass = append(aotPass, aot.Seconds())
	}
	gc.stop(rep.metrics)
	rep.metrics["run_pass_s"] = ws.times(passes)
	rep.metrics["raw.run_pass_s"] = quietMedian(passes, ws.stolen)
	rep.metrics["dsl_run_pass_s"] = quietMedian(runPass, ws.stolen)
	rep.metrics["compile_pass_s"] = quietMedian(compilePass, ws.stolen)
	rep.metrics["aot_exec_pass_s"] = quietMedian(aotPass, ws.stolen)
	rep.metrics["throughput_rps"] = ws.rates(rates)
	rep.metrics["latency_p50_ms"], rep.metrics["latency_p90_ms"] = ws.quantiles(lats, len(st.progs))
	rep.metrics["raw.latency_p50_ms"], _ = quietQuantiles(lats, len(st.progs), ws.stolen)
	rep.count("aot_src_bytes", setupBytes[0])
	var blocks, irt int64
	for i := range tasks {
		blocks += int64(tasks[i])
		irt += int64(irTasks[i])
	}
	rep.count("core.blocks", blocks)
	rep.count("ir.tasks", irt)

	if e.traced {
		traceDSL(e, rep, st, refs, irTasks, rng, budget, rep.metrics["raw.latency_p50_ms"])
	}
	return rep, nil
}

// traceDSL is the traced phase of dsl-aot: the same three steps per
// program, with the calls Session.Run and Session.EmitGo make inside
// them issued by the benchmark, each under a span — lang.parse,
// core.detect (with its detect.* phases), codegen.compile (with its
// codegen.* phases), codegen.lower_ir, runtime.execute; then lang.parse, core.detect,
// codegen.compile (the emission form), ir.lower, ir.passes (with its
// ir.pass.* phases), gogen.print; then aot.binary.
func traceDSL(e *env, rep *report, st *dslState, refs []uint64, irTasks []int, rng *rand.Rand, budget time.Duration, untracedP50 float64) {
	tr := &tracer{}
	l := tr.lane()
	reg := obs.NewRegistry()
	var rs runtimeStats
	var execBusy time.Duration
	var codegenTasks int64
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < budget; pass++ {
		for _, i := range rng.Perm(len(st.progs)) {
			p := st.progs[i]
			op := tr.newOp()
			root := l.begin("program", op, 0)
			rep.attempted += 3
			if err := func() error {
				var sc *polypipe.SCoP
				var err error
				if l.call("lang.parse", op, root.id, func() { sc, err = p.parse() }); err != nil {
					return err
				}
				info, err := tracedDetect(l, op, root.id, sc)
				if err != nil {
					return err
				}
				prog := interp.Programify(sc)
				rec := &obs.Recorder{Reg: obs.NewRegistry(), Phases: &obs.Phases{}}
				c := l.begin("codegen.compile", op, root.id)
				tp, err := codegen.CompileWithOptions(info, codegen.CompileOptions{Obs: rec})
				l.end(c)
				if err != nil {
					return err
				}
				l.phases(op, c.id, "codegen.", rec.Phases.Spans())
				if pass == 0 {
					codegenTasks += rec.Snapshot().Counter("codegen.tasks")
				}
				var rt *runtime.Program
				l.call("codegen.lower_ir", op, root.id, func() { rt = tp.Lower() })
				prog.Reset()
				var es runtime.ExecStats
				execBusy += l.call("runtime.execute", op, root.id, func() {
					es = rt.Execute(execWorkers, runtime.ExecOptions{Reg: reg})
				})
				rs.add(es)
				if h := prog.Hash(); h != refs[i] {
					return fmt.Errorf("traced pipelined hash %x, interpreter %x", h, refs[i])
				}
				return nil
			}(); err != nil {
				rep.fail("%s: traced run: %v", p.name, err)
			}

			if err := func() error {
				var sc *polypipe.SCoP
				var err error
				if l.call("lang.parse", op, root.id, func() { sc, err = p.parse() }); err != nil {
					return err
				}
				info, err := tracedDetect(l, op, root.id, sc)
				if err != nil {
					return err
				}
				var tp *codegen.TaskProgram
				if l.call("codegen.compile", op, root.id, func() { tp, err = codegen.CompileForEmission(info) }); err != nil {
					return err
				}
				rec := &obs.Recorder{Reg: reg, Phases: &obs.Phases{}}
				opt := ir.Options{Workers: execWorkers, Obs: rec}
				var irp *ir.Program
				if l.call("ir.lower", op, root.id, func() { irp, err = ir.Lower(info, tp, opt) }); err != nil {
					return err
				}
				passes := l.begin("ir.passes", op, root.id)
				ir.RunPasses(irp, ir.Passes(), opt)
				l.end(passes)
				l.phases(op, passes.id, "ir.pass.", rec.Phases.Spans())
				var b bytes.Buffer
				if l.call("gogen.print", op, root.id, func() { err = gogen.Print(&b, irp) }); err != nil {
					return err
				}
				if h := sha256.Sum256(b.Bytes()); hex.EncodeToString(h[:]) != st.sum[i] {
					return fmt.Errorf("traced emission differs from Session.EmitGo's")
				}
				if len(irp.Tasks) != irTasks[i] {
					return fmt.Errorf("IR has %d tasks, the emitted binary ran %d", len(irp.Tasks), irTasks[i])
				}
				return nil
			}(); err != nil {
				rep.fail("%s: traced emission: %v", p.name, err)
			}

			var hash uint64
			var err error
			l.call("aot.binary", op, root.id, func() { hash, _, err = st.runBinary(e.scratch, i) })
			if err != nil {
				rep.fail("%s: traced: %v", p.name, err)
			} else if hash != refs[i] {
				rep.fail("%s: traced emitted binary hash %x, interpreter %x", p.name, hash, refs[i])
			}
			l.end(root)
		}
	}
	spans := tr.all()
	ops := int(tr.ops.Load())
	perOpMetrics(rep.metrics, spans, ops, "lang.parse", "core.detect", "detect.dependence_analysis", "detect.pipeline_maps",
		"detect.blocking_integration", "detect.dependency_relations", "codegen.compile", "codegen.lower_ir",
		"runtime.execute", "ir.lower", "ir.passes", "gogen.print", "aot.binary")
	for _, ps := range ir.Passes() {
		perOpMetrics(rep.metrics, spans, ops, "ir.pass."+ps.Name)
	}
	rs.report(rep.metrics, reg, execBusy, ops)
	rep.count("codegen.tasks", codegenTasks)
	if untracedP50 > 0 {
		rep.metrics["trace.overhead_pct"] = 100 * (quantile(spanDurations(spans, "program"), 0.5) - untracedP50) / untracedP50
	}
	if err := tr.write(fmt.Sprintf("%s/trace/%s-seed%d.json", e.scratch, e.name, e.seed)); err != nil {
		rep.problem("write trace: %v", err)
	}
}

// tracedDetect runs core.Detect under a span, with the detect.* phases
// it records attached as children.
func tracedDetect(l *lane, op, parent int64, sc *polypipe.SCoP) (*core.Info, error) {
	rec := &obs.Recorder{Phases: &obs.Phases{}}
	var info *core.Info
	var err error
	o := l.begin("core.detect", op, parent)
	info, err = core.Detect(sc, core.Options{Workers: execWorkers, Obs: rec})
	l.end(o)
	l.phases(op, o.id, "detect.", rec.Phases.Spans())
	return info, err
}
