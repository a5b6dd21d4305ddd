// Package interp executes analysis-only SCoPs (for example, programs
// parsed from the DSL, which carry no statement bodies): it allocates
// one float64 array per SCoP array — sized to cover every declared
// access — and attaches a deterministic synthetic body to every
// statement that folds the statement's reads (in declaration order)
// into the written cell.
//
// Because the synthetic bodies read and write exactly the cells the
// access relations declare, interpretation is a faithful executable
// twin of the polyhedral description, which makes it the workhorse of
// the differential tests: any scheduling error in the pipeline
// transformation changes the bits of the result.
package interp

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/isl"
	"repro/internal/kernels"
	"repro/internal/scop"
)

// Array is a dense float64 array with per-dimension offsets, so
// accesses with negative or shifted indices stay in bounds.
type Array struct {
	name   string
	offset []int // minimum accessed index per dimension
	extent []int // number of cells per dimension
	data   []float64
}

// index maps an access index vector to the flat position.
func (a *Array) index(idx isl.Vec) int {
	pos := 0
	for d, x := range idx {
		rel := x - a.offset[d]
		if rel < 0 || rel >= a.extent[d] {
			panic(fmt.Sprintf("interp: access %s%v outside allocated [%v, %v+%v)",
				a.name, idx, a.offset, a.offset, a.extent))
		}
		pos = pos*a.extent[d] + rel
	}
	return pos
}

// At returns the value at idx.
func (a *Array) At(idx isl.Vec) float64 { return a.data[a.index(idx)] }

// Set stores v at idx.
func (a *Array) Set(idx isl.Vec, v float64) { a.data[a.index(idx)] = v }

// maxAccessArity bounds the array dimensionality the synthetic bodies
// support (stack-allocated index buffers).
const maxAccessArity = 8

// State holds the arrays of one SCoP plus per-statement sink
// accumulators: statements without a write access fold an
// order-insensitive integer digest of their computed values into their
// accumulator, so scheduling errors around pure readers still change
// the state hash. Accumulation is atomic because the Polly-baseline
// executor may run a conflict-free sink statement's iterations in
// parallel.
type State struct {
	arrays    map[string]*Array
	order     []string
	sinks     map[string]*atomic.Int64
	sinkNames []string
}

// NewState allocates arrays covering every access of sc.
func NewState(sc *scop.SCoP) *State {
	st := &State{arrays: make(map[string]*Array), sinks: make(map[string]*atomic.Int64)}
	for _, s := range sc.Stmts {
		if s.Write == nil {
			st.sinks[s.Name] = new(atomic.Int64)
			st.sinkNames = append(st.sinkNames, s.Name)
		}
	}
	sortStrings(st.sinkNames)
	type bounds struct{ lo, hi []int }
	bs := map[string]*bounds{}
	consider := func(rel *isl.Map) {
		name := rel.OutSpace().Name
		b := bs[name]
		rel.Range().Foreach(func(idx isl.Vec) bool {
			if b == nil {
				b = &bounds{lo: idx.Clone(), hi: idx.Clone()}
				bs[name] = b
			}
			for d, x := range idx {
				if x < b.lo[d] {
					b.lo[d] = x
				}
				if x > b.hi[d] {
					b.hi[d] = x
				}
			}
			return true
		})
	}
	for _, s := range sc.Stmts {
		if s.Write != nil {
			consider(s.Write.Rel())
		}
		for i := range s.Reads {
			consider(s.Reads[i].Rel())
		}
	}
	for name, arr := range sc.Arrays {
		b := bs[name]
		if b == nil {
			// Declared but never accessed: single cell.
			b = &bounds{lo: make([]int, arr.Dim), hi: make([]int, arr.Dim)}
		}
		extent := make([]int, len(b.lo))
		size := 1
		for d := range extent {
			extent[d] = b.hi[d] - b.lo[d] + 1
			size *= extent[d]
		}
		st.arrays[name] = &Array{
			name:   name,
			offset: b.lo,
			extent: extent,
			data:   make([]float64, size),
		}
		st.order = append(st.order, name)
	}
	sortStrings(st.order)
	return st
}

func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// Array returns the named array.
func (st *State) Array(name string) *Array { return st.arrays[name] }

// Reset seeds every array deterministically and clears the sink
// accumulators.
func (st *State) Reset() {
	for _, a := range st.sinks {
		a.Store(0)
	}
	for _, name := range st.order {
		a := st.arrays[name]
		seed := SeedBase(name)
		for i := range a.data {
			a.data[i] = SeedValue(seed, i)
		}
	}
}

// Hash digests all arrays (order-sensitively) and the sink
// accumulators.
func (st *State) Hash() uint64 {
	h := uint64(14695981039346656037)
	for _, name := range st.order {
		for _, v := range st.arrays[name].data {
			h ^= math.Float64bits(v)
			h *= 1099511628211
		}
	}
	for _, name := range st.sinkNames {
		h ^= uint64(st.sinks[name].Load())
		h *= 1099511628211
	}
	return h
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Attach installs a synthetic body on every statement of sc, bound to
// this state. Bodies are deterministic and order-sensitive in the
// declared reads:
//
//	acc = 1
//	for each read r (in declaration order): acc = acc/2 + value(r)
//	write cell = acc*0.3 + 0.01*Σ(iteration coords)
//
// A final squash keeps magnitudes bounded across long chains.
func (st *State) Attach(sc *scop.SCoP) {
	for _, s := range sc.Stmts {
		s.Body = st.bodyFor(s)
	}
}

func (st *State) bodyFor(s *scop.Statement) scop.Body {
	type reader struct {
		arr   *Array
		exprs []func(isl.Vec) int
	}
	compileAccess := func(a *scop.AccessRef) reader {
		if len(a.Access.Exprs) > maxAccessArity {
			panic(fmt.Sprintf("interp: access to %q has %d subscripts, max %d",
				a.Array(), len(a.Access.Exprs), maxAccessArity))
		}
		arr := st.arrays[a.Array()]
		exprs := make([]func(isl.Vec) int, len(a.Access.Exprs))
		for d := range a.Access.Exprs {
			e := a.Access.Exprs[d]
			exprs[d] = e.Eval
		}
		return reader{arr: arr, exprs: exprs}
	}
	var reads []reader
	for i := range s.Reads {
		reads = append(reads, compileAccess(&s.Reads[i]))
	}
	var write *reader
	if s.Write != nil {
		w := compileAccess(s.Write)
		write = &w
	}
	sink := st.sinks[s.Name]
	eval := func(r reader, iv isl.Vec, idx isl.Vec) isl.Vec {
		for d := range r.exprs {
			idx[d] = r.exprs[d](iv)
		}
		return idx
	}
	return func(iv isl.Vec) {
		acc := float64(AccInit)
		var buf [maxAccessArity]int
		for _, r := range reads {
			idx := eval(r, iv, buf[:len(r.exprs)])
			acc = FoldRead(acc, r.arr.At(idx))
		}
		lin := 0
		for _, x := range iv {
			lin += x
		}
		v := Finish(acc, lin)
		if write != nil {
			idx := eval(*write, iv, buf[:len(write.exprs)])
			write.arr.Set(idx, v)
		} else if sink != nil {
			// Order-insensitive integer fold: safe under any legal
			// schedule, including parallel sink iterations, yet
			// sensitive to the values read.
			sink.Add(SinkFold(v))
		}
	}
}

// Programify wraps an analysis-only SCoP into a runnable Program with
// synthetic bodies, ready for the executors.
func Programify(sc *scop.SCoP) *kernels.Program {
	st := NewState(sc)
	st.Attach(sc)
	st.Reset()
	return &kernels.Program{
		Name:  sc.Name,
		SCoP:  sc,
		Reset: st.Reset,
		Hash:  st.Hash,
	}
}
