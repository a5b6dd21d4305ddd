package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// Host-speed calibration.
//
// On a shared host the speed of a CPU drifts by a tenth or more over
// seconds and minutes, with the load the other guests put on the same
// cores, and every time a run measures drifts with it: a plain sha256
// loop slowed by a fifth over 90 s with no steal at all. Steal-aware
// windows do not see this, so the benchmark also measures the host.
// Before the first measuring window and after each one, a child
// process decodes a JSON document the benchmark builds itself on every
// CPU at once (the kernel), and the end-to-end times of the window are
// multiplied by calRefSeconds over the mean of the kernel times on
// either side of it: they read as they would on a host where the
// kernel takes calRefSeconds.
//
// The kernel is allocation and parsing, the kind of work the serving
// path does, and none of it is repository code. It runs in its own
// process, so nothing the program under test does to its own heap or
// collector changes it, and only once the program under test has gone
// idle. On a 2-CPU Xeon guest a window's time and the kernel time
// right after it correlated at 0.5 to 0.7 within a run, and across
// runs whose kernel time drifted from 11 to 17 ms, scaling cut the
// spread of serve-hot's pass time from 0.24 to 0.05 of its median.

const (
	// calibrateArg runs the binary as the calibration child.
	calibrateArg = "-calibrate-child"
	// calDecodes is how many times each CPU decodes the document in
	// one kernel run, about 12 ms in all on a 2-CPU guest. A longer
	// kernel varies as much from one run to the next: the variation is
	// the host's.
	calDecodes = 4
	// calRefSeconds is the reference kernel time end-to-end times are
	// scaled to, about what the kernel takes on the 2-CPU guest the
	// benchmark was written on.
	calRefSeconds = 0.012
)

// calDoc is the calibration document: 300 records of a name and two
// number arrays, about 60 KB of JSON.
var calDoc = func() []byte {
	type record struct {
		Name  string    `json:"name"`
		Vals  []float64 `json:"vals"`
		Index []int     `json:"index"`
	}
	var recs []record
	for i := 0; i < 300; i++ {
		r := record{Name: fmt.Sprintf("stmt-%d", i)}
		for j := 0; j < 12; j++ {
			r.Vals = append(r.Vals, float64(i*j)/7)
			r.Index = append(r.Index, i*31+j)
		}
		recs = append(recs, r)
	}
	b, err := json.Marshal(recs)
	if err != nil {
		panic(err) // a plain slice of structs always marshals
	}
	return b
}()

// calibrationChild answers every line on standard input with the time
// of one kernel run, until standard input closes.
func calibrationChild() {
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		fmt.Printf("%.9f\n", calKernel())
	}
}

// calKernel decodes calDoc calDecodes times on every CPU at once and
// returns the wall time in seconds.
func calKernel() float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calDecodes; i++ {
				var v any
				if err := json.Unmarshal(calDoc, &v); err != nil {
					panic(err) // calDoc is valid JSON by construction
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// calibrator drives the calibration child and keeps its kernel times.
type calibrator struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Scanner
	samples []float64
	err     error
}

// hostCal is the run's calibrator.
var hostCal *calibrator

// startCalibrator starts the child and runs the kernel twice unrecorded,
// so the child's heap and code are warm before the first sample.
func startCalibrator() (*calibrator, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, calibrateArg)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &calibrator{cmd: cmd, in: in, out: bufio.NewScanner(out)}
	for i := 0; i < 2; i++ {
		if _, err := c.take(); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

// take waits for this process to go idle, so nothing of the program
// under test, its collector included, runs beside the kernel, and
// times one kernel run in the child.
func (c *calibrator) take() (float64, error) {
	waitIdle()
	if _, err := fmt.Fprintln(c.in); err != nil {
		return 0, fmt.Errorf("calibration child: %w", err)
	}
	if !c.out.Scan() {
		return 0, fmt.Errorf("calibration child stopped: %v", c.out.Err())
	}
	return strconv.ParseFloat(c.out.Text(), 64)
}

// sample records and returns one kernel time. After a failure it
// returns calRefSeconds, which leaves times as measured; the run then
// fails on kernelSeconds.
func (c *calibrator) sample() float64 {
	if c == nil || c.err != nil {
		return calRefSeconds
	}
	v, err := c.take()
	if err != nil {
		c.err = err
		return calRefSeconds
	}
	c.samples = append(c.samples, v)
	return v
}

// kernelSeconds is the median recorded kernel time.
func (c *calibrator) kernelSeconds() (float64, error) {
	if c.err != nil {
		return 0, c.err
	}
	if len(c.samples) == 0 {
		return 0, fmt.Errorf("no calibration samples")
	}
	return median(c.samples), nil
}

// stop closes the child's input, on which it exits, and waits for it.
func (c *calibrator) stop() {
	c.in.Close()
	_ = c.cmd.Wait() // the child's exit status carries nothing once its answers are read
}

// waitIdle returns once this process has used under a tenth of a CPU
// over 2 ms, or after 100 ms.
func waitIdle() {
	for i := 0; i < 50; i++ {
		before := cpuSeconds()
		time.Sleep(2 * time.Millisecond)
		if cpuSeconds()-before < 0.0002 {
			return
		}
	}
}

// cpuSeconds is the CPU time this process has used, all threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
