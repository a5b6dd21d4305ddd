package futures

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/tasking"
)

// The futures runtime must satisfy the codegen tasking-layer
// interface.
var _ codegen.Layer = (*Runtime)(nil)

func TestOrdering(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		var order []int
		var mu sync.Mutex
		rec := func(id int) func() {
			return func() {
				mu.Lock()
				order = append(order, id)
				mu.Unlock()
			}
		}
		r := New(4)
		r.Submit(tasking.Task{Fn: rec(1), Out: 0, Serial: tasking.NoSerial})
		r.Submit(tasking.Task{Fn: rec(2), In: []int{0}, Out: 1, Serial: tasking.NoSerial})
		r.Submit(tasking.Task{Fn: rec(3), In: []int{1}, Out: 2, Serial: tasking.NoSerial})
		r.Close()
		if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
			t.Fatalf("trial %d: order = %v", trial, order)
		}
	}
}

func TestSerialChain(t *testing.T) {
	const n = 60
	var mu sync.Mutex
	var order []int
	r := New(8)
	for i := 0; i < n; i++ {
		i := i
		r.Submit(tasking.Task{
			Fn: func() {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			},
			Out:    -1,
			Serial: 3,
		})
	}
	r.Close()
	for i, got := range order {
		if got != i {
			t.Fatalf("serialized chain out of order at %d: %d", i, got)
		}
	}
}

func TestBoundedConcurrency(t *testing.T) {
	var cur, peak atomic.Int64
	r := New(3)
	for i := 0; i < 50; i++ {
		r.Submit(tasking.Task{
			Fn: func() {
				c := cur.Add(1)
				for {
					p := peak.Load()
					if c <= p || peak.CompareAndSwap(p, c) {
						break
					}
				}
				cur.Add(-1)
			},
			Out:    i,
			Serial: tasking.NoSerial,
		})
	}
	r.Close()
	if peak.Load() > 3 {
		t.Fatalf("peak concurrency %d exceeds 3 workers", peak.Load())
	}
}

func TestSubmitAfterClosePanics(t *testing.T) {
	r := New(1)
	r.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Submit(tasking.Task{Fn: func() {}, Serial: tasking.NoSerial})
}

func TestNewRejectsZeroWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}

// TestPipelinedProgramOnFuturesLayer runs a full transformed program
// on the futures back end and checks bit-identical results — the §7
// retargeting claim, end to end.
func TestPipelinedProgramOnFuturesLayer(t *testing.T) {
	p := kernels.Listing3(16)
	info, err := core.Detect(p.SCoP, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Compile(info)
	if err != nil {
		t.Fatal(err)
	}

	p.Reset()
	for _, s := range p.SCoP.Stmts {
		for _, iv := range s.Domain().Elements() {
			s.Body(iv)
		}
	}
	want := p.Hash()

	for trial := 0; trial < 10; trial++ {
		p.Reset()
		r := New(4)
		prog.Submit(r)
		r.Close()
		if got := p.Hash(); got != want {
			t.Fatalf("trial %d: futures-layer result differs from sequential", trial)
		}
	}
}
