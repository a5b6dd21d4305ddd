package stages

import (
	"sync"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/tasking"
)

var _ codegen.Layer = (*Runtime)(nil)

func TestCrossStageOrdering(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		var mu sync.Mutex
		var order []int
		rec := func(id int) func() {
			return func() {
				mu.Lock()
				order = append(order, id)
				mu.Unlock()
			}
		}
		r := New(2)
		r.Submit(tasking.Task{Fn: rec(1), Out: 0, Serial: 0})
		r.Submit(tasking.Task{Fn: rec(2), In: []int{0}, Out: 1, Serial: 1})
		r.Submit(tasking.Task{Fn: rec(3), In: []int{1}, Out: 2, Serial: 2})
		r.Close()
		if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
			t.Fatalf("trial %d: order = %v", trial, order)
		}
	}
}

func TestStageFIFO(t *testing.T) {
	var mu sync.Mutex
	var order []int
	r := New(1)
	for i := 0; i < 80; i++ {
		i := i
		r.Submit(tasking.Task{
			Fn: func() {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			},
			Out:    -1,
			Serial: 9,
		})
	}
	r.Close()
	for i, got := range order {
		if got != i {
			t.Fatalf("stage not FIFO at %d: %d", i, got)
		}
	}
}

func TestPoolTasks(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	r := New(3)
	for i := 0; i < 50; i++ {
		i := i
		dep := []int{}
		if i > 0 {
			dep = append(dep, i-1)
		}
		r.Submit(tasking.Task{
			Fn: func() {
				mu.Lock()
				if i > 0 && !seen[i-1] {
					t.Errorf("task %d ran before its dependency", i)
				}
				seen[i] = true
				mu.Unlock()
			},
			In:     dep,
			Out:    i,
			Serial: tasking.NoSerial,
		})
	}
	r.Close()
	if len(seen) != 50 {
		t.Fatalf("ran %d tasks", len(seen))
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

func TestCloseIdempotent(t *testing.T) {
	r := New(1)
	r.Submit(tasking.Task{Fn: func() {}, Out: 0, Serial: 0})
	r.Close()
	r.Close()
}

// TestPipelinedProgramOnStagesLayer runs full transformed programs on
// the stage layer and checks bit-identical results.
func TestPipelinedProgramOnStagesLayer(t *testing.T) {
	for _, p := range []*kernels.Program{
		kernels.Listing3(16),
		kernels.MMChain(3, 12, kernels.GMM),
		kernels.SeidelChain(10, 3),
	} {
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
		for trial := 0; trial < 5; trial++ {
			p.Reset()
			r := New(2)
			prog.Submit(r)
			r.Close()
			if got := p.Hash(); got != want {
				t.Fatalf("%s trial %d: stage-layer result differs", p.Name, trial)
			}
		}
	}
}
