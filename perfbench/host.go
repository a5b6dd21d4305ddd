package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// provenance describes the host and code a result was measured on, so
// a 2-CPU number is only ever compared with another 2-CPU number.
func provenance(seed int64, workload string, trace int) map[string]any {
	p := map[string]any{
		"workload":   workload,
		"seed":       seed,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"source":     sourceDigest("."),
		"commit":     "",
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["commit"] = s.Value
			case "vcs.modified":
				p["commit_modified"] = s.Value == "true"
			}
		}
	}
	return p
}

// sourceDigest hashes the Go sources and module files of the tree at
// root. It stands in for the commit when the checkout is not a git
// repository, and keys the count repeat check to one source tree.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry just drops out of the digest
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || strings.HasSuffix(path, ".loop")) {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		io.WriteString(h, f+"\x00")
		if fh, err := os.Open(f); err == nil {
			io.Copy(h, fh)
			fh.Close()
		}
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTicks reads the machine-wide busy and steal ticks from
// /proc/stat. Steal is time the hypervisor gave the CPUs to another
// guest while this one had work, the main source of run-to-run noise
// on a shared host; busy is every tick the guest wanted a CPU (user,
// nice, system, irq, softirq and steal), so steal/busy is the share of
// the wanted CPU time that was taken, whatever the load.
func cpuTicks() (busy, steal int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseInt(f, 10, 64) // a malformed field counts as 0
		switch i {
		case 0, 1, 2, 5, 6: // user, nice, system, irq, softirq
			busy += v
		case 7:
			busy += v
			steal = v
		}
	}
	return busy, steal
}

// stealMark is one reading of the tick counters cpuTicks reads.
type stealMark struct{ busy, steal int64 }

func markSteal() stealMark {
	b, s := cpuTicks()
	return stealMark{b, s}
}

// stolenUntil is the share of the CPU time the guest wanted between m
// and end that the hypervisor took.
func (m stealMark) stolenUntil(end stealMark) float64 {
	if end.busy <= m.busy {
		return 0
	}
	return float64(end.steal-m.steal) / float64(end.busy-m.busy)
}

// quietWindows returns the indexes, in order, of the measuring windows
// in which the hypervisor took no more than the median share of the
// CPU time; stolen[i] is window i's share. That is at least half of
// them, and every window when none saw steal. Steal on a shared host
// comes in bursts of a second or more that lengthen every operation
// they cover. The windows are chosen by what the host did, not by what
// was measured, so the choice favours neither a faster nor a slower
// program.
func quietWindows(stolen []float64) []int {
	sorted := append([]float64(nil), stolen...)
	sort.Float64s(sorted)
	var idx []int
	for i, s := range stolen {
		if s <= sorted[(len(sorted)-1)/2] {
			idx = append(idx, i)
		}
	}
	return idx
}

// windows collects, for the measuring windows of one loop, each
// window's steal share and host factor (see calib.go).
type windows struct {
	stolen, factors []float64
	kernel          float64 // the kernel time after the last window
}

// openWindows times the kernel once before the first window.
func openWindows() *windows { return &windows{kernel: hostCal.sample()} }

// close records a finished window's steal share and times the kernel
// again. The window's factor is calRefSeconds over the mean of the
// kernel times before and after it. Call close once the window's work
// and its checks are done, so the program is idle.
func (w *windows) close(stolen float64) {
	k := hostCal.sample()
	w.stolen = append(w.stolen, stolen)
	w.factors = append(w.factors, calRefSeconds/((w.kernel+k)/2))
	w.kernel = k
}

// times is the quietMedian of xs, one time per window, each scaled to
// the reference host speed.
func (w *windows) times(xs []float64) float64 {
	s := make([]float64, len(xs))
	for i, x := range xs {
		s[i] = x * w.factors[i]
	}
	return quietMedian(s, w.stolen)
}

// rates is the quietMedian of xs, one rate per window, each scaled to
// the reference host speed.
func (w *windows) rates(xs []float64) float64 {
	s := make([]float64, len(xs))
	for i, x := range xs {
		s[i] = x / w.factors[i]
	}
	return quietMedian(s, w.stolen)
}

// quantiles is quietQuantiles of samples, win per window, each scaled
// to the reference host speed.
func (w *windows) quantiles(samples []float64, win int) (p50, p90 float64) {
	s := make([]float64, len(samples))
	for i, x := range samples {
		s[i] = x * w.factors[i/win]
	}
	return quietQuantiles(s, win, w.stolen)
}

// quietMedian is the median of xs, one value per measuring window,
// over the quietWindows.
func quietMedian(xs, stolen []float64) float64 {
	var keep []float64
	for _, i := range quietWindows(stolen) {
		keep = append(keep, xs[i])
	}
	return median(keep)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.Sys) / (1 << 20)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// gcWindow brackets a measured window and reports the collector's
// cycles and total pause inside it.
type gcWindow struct{ cycles, pauseNs uint64 }

// gcStart collects the set-up's garbage, so every window starts from
// the same heap state, and opens a window.
func gcStart() gcWindow {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcWindow{uint64(ms.NumGC), ms.PauseTotalNs}
}

func (g gcWindow) stop(m map[string]float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["gc.cycles"] = float64(uint64(ms.NumGC) - g.cycles)
	m["gc.pause_ms"] = float64(ms.PauseTotalNs-g.pauseNs) / 1e6
}

// quantile returns the nearest-rank q-quantile of xs (sorted in
// place); 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// quietQuantiles splits samples, in the order they were taken, into
// windows of size win (stolen holds one share per window) and returns
// the p50 and p90 of the samples of the quietWindows pooled.
func quietQuantiles(samples []float64, win int, stolen []float64) (p50, p90 float64) {
	var pool []float64
	for _, k := range quietWindows(stolen) {
		pool = append(pool, samples[k*win:(k+1)*win]...)
	}
	return quantile(pool, 0.50), quantile(pool, 0.90)
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// timedSetups runs build setupReps times, releasing every state but
// the last, and returns the last state with the set-up time in seconds
// at the reference host speed (windows.times). A set-up must not
// depend on an earlier one having run.
func timedSetups[T any](build func() (T, error), release func(T)) (T, float64, error) {
	var last T
	var times []float64
	ws := openWindows()
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			release(last)
			// Collect the released state outside the timed region, so
			// the next set-up and the peak RSS do not depend on when
			// the collector would have run.
			runtime.GC()
		}
		m, start := markSteal(), time.Now()
		s, err := build()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		ws.close(m.stolenUntil(markSteal()))
		last = s
	}
	return last, ws.times(times), nil
}
