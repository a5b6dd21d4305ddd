// Command perfbench is the repository benchmark: one program that runs
// a named workload from a seed, checks every output against an
// independent reference, and prints one JSON result line.
//
//	perfbench --workload serve-hot --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics listed in
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics,
// taken from spans the benchmark records around its calls into the
// repository's packages plus the phases and counters those packages
// already expose. The benchmark adds no instrumentation inside the
// program under test. METRICS.md maps each metric to the workload it
// should move.
//
// run.sh builds this package from the checkout and runs it from the
// checkout root; scratch files (the Go build cache, emitted AOT
// programs, traces, results) go under .bench_build.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workload is one benchmark input set. run measures it for the given
// budget and returns the metrics of the requested mode.
type workload struct {
	name string
	run  func(env *env) (*report, error)
}

var workloads = []workload{
	{"serve-hot", runServeHot},
	{"serve-novel", runServeNovel},
	{"exec-paper", runExecPaper},
	{"dsl-aot", runDSLAOT},
}

// env is what every workload gets: its seed, its measuring budget,
// whether this is the traced run, and where scratch files go.
type env struct {
	name    string
	seed    int64
	budget  time.Duration
	traced  bool
	scratch string // .bench_build under the checkout root
}

// setupReps is how many times a run sets its workload up; setup_s is
// the quietMedian of their times, so a single slow set-up does not
// move it.
const setupReps = 5

// report is one workload run's outcome. Every operation a workload
// attempts counts once in attempted; failed counts wrong outputs,
// non-200 responses, refusals and transport errors alike.
type report struct {
	attempted, failed int
	// problems lists why failed is non-zero or a check did not hold.
	problems []string
	metrics  map[string]float64
	// counts holds the exact count metrics the repeat check compares
	// across runs of one seed on one source tree.
	counts map[string]int64
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, counts: map[string]int64{}}
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// problem records a failed check that is not an operation.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) count(name string, v int64) {
	r.counts[name] = v
	r.metrics[name] = float64(v)
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == calibrateArg {
		calibrationChild()
		return
	}
	name := flag.String("workload", "", "workload name: serve-hot, serve-novel, exec-paper or dsl-aot")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 25, "measuring budget in seconds")
	trace := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds float64, trace int) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	e := &env{
		name:    name,
		seed:    seed,
		budget:  time.Duration(seconds * float64(time.Second)),
		traced:  trace == 1,
		scratch: ".bench_build",
	}
	if err := os.MkdirAll(e.scratch, 0o755); err != nil {
		return err
	}
	prov := provenance(seed, name, trace)

	if hostCal, err = startCalibrator(); err != nil {
		return fmt.Errorf("start the host calibration: %w", err)
	}
	defer hostCal.stop()
	m := markSteal()
	rep, err := w.run(e)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	prov["steal_pct"] = 100 * m.stolenUntil(markSteal())
	kernel, err := hostCal.kernelSeconds()
	if err != nil {
		return err
	}
	rep.metrics["host.cal_ms"] = 1e3 * kernel
	prov["cal_ms"] = 1e3 * kernel
	rep.metrics["peak_rss_mb"] = peakRSSMB()
	if rep.attempted > 0 {
		rep.metrics["ok_ratio"] = float64(rep.attempted-rep.failed) / float64(rep.attempted)
	}
	if err := repeatCheck(e, name, prov["source"].(string), rep.counts); err != nil {
		rep.problem("%v", err)
	}

	// A failed request has infinite latency, which JSON cannot carry;
	// the run is then incorrect anyway.
	for k, v := range rep.metrics {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			rep.metrics[k] = math.MaxFloat64
		}
	}
	want := spec.EndToEnd
	if e.traced {
		want = spec.PerLayer
	}
	out := resultOut{
		Correct:   rep.failed == 0 && len(rep.problems) == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, m := range want {
		v, ok := rep.metrics[m.Name]
		if !ok && !e.traced {
			return fmt.Errorf("%s: end-to-end metric %q was not measured", name, m.Name)
		}
		// A layer the workload does not exercise reads 0.
		out.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	fmt.Printf("provenance %s\n", mustJSON(prov))
	line := mustJSON(out)
	saved := map[string]any{"provenance": prov, "result": out, "problems": rep.problems, "all_metrics": rep.metrics,
		"calibration_s": hostCal.samples}
	file := filepath.Join(e.scratch, "results", fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, trace))
	if err := writeFile(file, []byte(mustJSON(saved)+"\n")); err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read %s (run from the checkout root): %w", path, err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, errors.New("BENCHMARK.json lists no metrics")
	}
	return &s, nil
}

// repeatCheck compares the exact count metrics of this run with the
// ones an earlier run of the same workload, seed and source tree left
// behind, and records them for the next one. Counts are functions of
// the seed and the code only; a difference means the program is not
// deterministic where it claims to be.
func repeatCheck(e *env, name, source string, counts map[string]int64) error {
	if len(counts) == 0 {
		return nil
	}
	file := filepath.Join(e.scratch, "counts", fmt.Sprintf("%s-seed%d-%s.json", name, e.seed, source))
	if data, err := os.ReadFile(file); err == nil {
		var prev map[string]int64
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("repeat check: parse %s: %w", file, err)
		}
		var diffs []string
		for k, v := range counts {
			if pv, ok := prev[k]; ok && pv != v {
				diffs = append(diffs, fmt.Sprintf("%s %d then %d", k, pv, v))
			}
		}
		sort.Strings(diffs)
		if len(diffs) > 0 {
			return fmt.Errorf("repeat check: counts differ between two runs of seed %d: %v", e.seed, diffs)
		}
	}
	merged := map[string]int64{}
	if data, err := os.ReadFile(file); err == nil {
		_ = json.Unmarshal(data, &merged) // parse errors were reported above
	}
	for k, v := range counts {
		merged[k] = v
	}
	return writeFile(file, []byte(mustJSON(merged)+"\n"))
}

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and structs are marshalled
	}
	return string(b)
}
