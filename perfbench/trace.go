package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// span is one timed interval of the traced run. Spans the benchmark
// records around its calls into a package are layer spans; spans the
// program recorded itself through obs.Phases (detect.*, ir.pass.*)
// are attached under the call that produced them with phase set.
type span struct {
	id, parent int64 // parent 0 = a root
	op         int64 // the request or program the span belongs to
	lane       int   // client goroutine, a track in the trace file
	name       string
	start, end time.Time
	phase      bool
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer hands out span ids; each client goroutine records into its
// own lane, so recording takes no lock. Spans stay in memory until
// the run writes them out.
type tracer struct {
	ids   atomic.Int64
	ops   atomic.Int64
	lanes []*lane
}

type lane struct {
	t     *tracer
	idx   int
	spans []span
}

// lane returns a new recording lane. Call it before starting the
// goroutine that owns the lane.
func (t *tracer) lane() *lane {
	l := &lane{t: t, idx: len(t.lanes)}
	t.lanes = append(t.lanes, l)
	return l
}

// newOp returns a fresh operation id.
func (t *tracer) newOp() int64 { return t.ops.Add(1) }

// openSpan is a started span waiting for its end.
type openSpan struct {
	id, parent, op int64
	name           string
	start          time.Time
}

func (l *lane) begin(name string, op, parent int64) openSpan {
	return openSpan{id: l.t.ids.Add(1), parent: parent, op: op, name: name, start: time.Now()}
}

func (l *lane) end(o openSpan) time.Duration {
	now := time.Now()
	l.spans = append(l.spans, span{id: o.id, parent: o.parent, op: o.op, lane: l.idx, name: o.name, start: o.start, end: now})
	return now.Sub(o.start)
}

// call records f as a layer span.
func (l *lane) call(name string, op, parent int64, f func()) time.Duration {
	o := l.begin(name, op, parent)
	f()
	return l.end(o)
}

// phases attaches phase spans the program recorded (obs.Phases) under
// parent. Only phases with the given name prefix are kept.
func (l *lane) phases(op, parent int64, prefix string, ps []obs.PhaseSpan) {
	for _, p := range ps {
		if !strings.HasPrefix(p.Name, prefix) {
			continue
		}
		l.spans = append(l.spans, span{id: l.t.ids.Add(1), parent: parent, op: op, lane: l.idx,
			name: p.Name, start: p.Start, end: p.Start.Add(p.Duration), phase: true})
	}
}

func (t *tracer) all() []span {
	var out []span
	for _, l := range t.lanes {
		out = append(out, l.spans...)
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part
// its child layer spans cover. A layer's own phase spans do not count
// against it: core.detect keeps the time of its detect.* phases,
// which are reported under their own names as well.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int64]time.Duration{}
	for _, s := range spans {
		if s.parent != 0 && !s.phase {
			children[s.parent] += s.dur()
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.name] += s.dur() - children[s.id]
	}
	return out
}

// spanDurations lists the durations of every span with the given name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// perOpMetrics reports each span name's self time per operation as
// "<name>_ms", for the names listed.
func perOpMetrics(m map[string]float64, spans []span, ops int, names ...string) {
	self := selfTimes(spans)
	for _, n := range names {
		if ops > 0 {
			m[n+"_ms"] = ms(self[n]) / float64(ops)
		}
	}
}

// write saves the spans as a Chrome trace-event file (opens in
// Perfetto): one track per lane, span and parent ids in args.
func (t *tracer) write(path string) error {
	spans := t.all()
	if len(spans) == 0 {
		return nil
	}
	t0 := spans[0].start
	for _, s := range spans {
		if s.start.Before(t0) {
			t0 = s.start
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		ev := map[string]any{
			"name": s.name, "ph": "X", "pid": 1, "tid": s.lane,
			"ts":   float64(s.start.Sub(t0).Nanoseconds()) / 1e3,
			"dur":  float64(s.dur().Nanoseconds()) / 1e3,
			"args": map[string]any{"id": s.id, "parent": s.parent, "op": s.op, "phase": s.phase},
		}
		b, _ := json.Marshal(ev) // plain map of numbers and strings
		w.Write(b)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
