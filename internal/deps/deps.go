// Package deps computes memory-based dependences between the
// statements of a SCoP. It provides the two analyses the rest of the
// system needs:
//
//   - cross-statement flow dependences (write in an earlier nest, read
//     in a later nest), which drive pipeline detection, and
//   - intra-statement dependence testing per loop dimension, which
//     drives the Polly-style per-loop parallelization baseline.
package deps

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/isl"
	"repro/internal/par"
	"repro/internal/scop"
)

// Kind classifies a dependence.
type Kind int

const (
	// Flow is a read-after-write dependence.
	Flow Kind = iota
	// Anti is a write-after-read dependence.
	Anti
	// Output is a write-after-write dependence.
	Output
)

func (k Kind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	case Output:
		return "output"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Graph holds the dependences of one SCoP.
type Graph struct {
	scop *scop.SCoP
	// flow[src][dst] is the union of flow-dependence relations from
	// iterations of statement src to iterations of statement dst,
	// indexed by statement Index. Entries are nil when independent.
	flow [][]*isl.Map
	// intra[s] holds unordered intra-statement conflict pairs (i, j)
	// with i ≺ j for statement s, across flow, anti, and output
	// conflicts. Used for per-dimension parallelism tests.
	intra []*isl.Map
	// parDims[s] memoizes ParallelDims for statement s; parOnce[s]
	// makes its first computation the only one, so every view sharing
	// the graph (cache.Rebind) reuses it race-free.
	parOnce []sync.Once
	parDims [][]bool
}

// newGraph assembles a graph over sc from its relations.
func newGraph(sc *scop.SCoP, flow [][]*isl.Map, intra []*isl.Map) *Graph {
	n := len(sc.Stmts)
	return &Graph{
		scop:    sc,
		flow:    flow,
		intra:   intra,
		parOnce: make([]sync.Once, n),
		parDims: make([][]bool, n),
	}
}

// Analyze computes the dependence graph of sc on the calling
// goroutine.
func Analyze(sc *scop.SCoP) *Graph {
	return AnalyzeParallel(sc, 1)
}

// AnalyzeParallel computes the dependence graph of sc with the
// pairwise flow relations and the per-statement intra-conflict
// relations fanned out over at most workers goroutines (values < 1
// mean GOMAXPROCS). Every job owns exactly one slot of the graph, so
// the result is identical to Analyze regardless of worker count; the
// jobs only read the statements' access relations, which the relation
// algebra never mutates.
func AnalyzeParallel(sc *scop.SCoP, workers int) *Graph {
	n := len(sc.Stmts)
	g := newGraph(sc, make([][]*isl.Map, n), make([]*isl.Map, n))
	for i := range g.flow {
		g.flow[i] = make([]*isl.Map, n)
	}
	type flowJob struct{ src, dst *scop.Statement }
	var jobs []flowJob
	for _, src := range sc.Stmts {
		if src.Write == nil {
			continue
		}
		for _, dst := range sc.Stmts {
			if dst.Index < src.Index {
				continue // program order: sources precede targets
			}
			jobs = append(jobs, flowJob{src: src, dst: dst})
		}
	}
	workers = par.Workers(workers)
	par.For(len(jobs), workers, func(i int) {
		j := jobs[i]
		rel := flowRelation(j.src, j.dst)
		if rel != nil && !rel.IsEmpty() {
			g.flow[j.src.Index][j.dst.Index] = rel
		}
	})
	par.For(n, workers, func(i int) {
		s := sc.Stmts[i]
		g.intra[s.Index] = intraConflicts(s)
	})
	return g
}

// flowRelation returns the write→read relation from src to dst over all
// arrays, or nil when there is none. For src == dst only pairs (i, j)
// with i ≺ j count (a read of the value produced by an earlier
// iteration of the same nest).
func flowRelation(src, dst *scop.Statement) *isl.Map {
	var union *isl.Map
	w := src.Write
	for _, rd := range dst.ReadsFrom(w.Array()) {
		// (i, j) such that ∃m: w(i) = m ∧ rd(j) = m.
		rel := isl.Compose(rd.Inverse(), w.Rel())
		if union == nil {
			union = rel
		} else {
			union = union.Union(rel)
		}
	}
	if union == nil {
		return nil
	}
	if src == dst {
		union = restrictForward(union)
	}
	return union
}

// restrictForward keeps only pairs (i, j) with i ≺ j.
func restrictForward(m *isl.Map) *isl.Map {
	r := isl.NewMap(m.InSpace(), m.OutSpace())
	m.Foreach(func(i, j isl.Vec) bool {
		if i.Cmp(j) < 0 {
			r.Add(i, j)
		}
		return true
	})
	return r
}

// intraConflicts returns all unordered conflict pairs (i ≺ j) between
// iterations of s: flow, anti, and output conflicts through any array.
func intraConflicts(s *scop.Statement) *isl.Map {
	res := isl.NewMap(s.Space(), s.Space())
	if s.Write == nil {
		return res
	}
	w := s.Write.Rel()
	add := func(rel *isl.Map) {
		rel.Foreach(func(a, b isl.Vec) bool {
			switch a.Cmp(b) {
			case -1:
				res.Add(a, b)
			case 1:
				res.Add(b, a)
			}
			return true
		})
	}
	// Output conflicts: same location written twice. The write is
	// injective by SCoP validation, so this is empty, but keep the
	// computation for generality (relaxed-injectivity future work).
	add(isl.Compose(w.Inverse(), w))
	// Flow/anti conflicts: write at one iteration, read at another.
	for _, rd := range s.ReadsFrom(s.Write.Array()) {
		add(isl.Compose(rd.Inverse(), w))
	}
	return res
}

// Flow returns the flow-dependence relation from src to dst, or nil
// when dst does not depend on src.
func (g *Graph) Flow(src, dst *scop.Statement) *isl.Map {
	return g.flow[src.Index][dst.Index]
}

// DependsOn reports whether dst has a flow dependence on src.
func (g *Graph) DependsOn(dst, src *scop.Statement) bool {
	return g.flow[src.Index][dst.Index] != nil
}

// Sources returns the statements that dst directly flow-depends on,
// excluding itself, in program order.
func (g *Graph) Sources(dst *scop.Statement) []*scop.Statement {
	var out []*scop.Statement
	for _, src := range g.scop.Stmts {
		if src != dst && g.DependsOn(dst, src) {
			out = append(out, src)
		}
	}
	return out
}

// Targets returns the statements that directly flow-depend on src,
// excluding itself, in program order.
func (g *Graph) Targets(src *scop.Statement) []*scop.Statement {
	var out []*scop.Statement
	for _, dst := range g.scop.Stmts {
		if dst != src && g.DependsOn(dst, src) {
			out = append(out, dst)
		}
	}
	return out
}

// ParallelDims reports, per loop dimension of s, whether the loop at
// that depth can run its iterations in parallel: no intra-statement
// conflict relates two iterations that agree on all outer dimensions
// and differ at this one. This is the test a Polly-style per-loop
// parallelizer applies. The answer is computed once per statement
// (keyed by Index, so rebound statements share it) and returned as a
// fresh slice.
func (g *Graph) ParallelDims(s *scop.Statement) []bool {
	g.parOnce[s.Index].Do(func() { g.parDims[s.Index] = g.parallelDims(s) })
	return slices.Clone(g.parDims[s.Index])
}

func (g *Graph) parallelDims(s *scop.Statement) []bool {
	depth := s.Depth()
	par := make([]bool, depth)
	for d := range par {
		par[d] = true
	}
	g.intra[s.Index].Foreach(func(i, j isl.Vec) bool {
		for d := 0; d < depth; d++ {
			if i[d] != j[d] {
				// The conflict is carried by dimension d.
				par[d] = false
				break
			}
		}
		return true
	})
	return par
}

// HasIntraConflicts reports whether any two distinct iterations of s
// conflict (the nest is not fully data-parallel).
func (g *Graph) HasIntraConflicts(s *scop.Statement) bool {
	return !g.intra[s.Index].IsEmpty()
}

// CrossHazards returns an error when a later statement writes to memory
// that an earlier statement reads or writes, i.e. when cross-statement
// anti or output dependences exist. The pipeline transformation assumes
// programs free of such hazards (each nest writes its own array), so
// callers should reject these SCoPs rather than transform them
// incorrectly.
func CrossHazards(sc *scop.SCoP) error {
	for _, late := range sc.Stmts {
		if late.Write == nil {
			continue
		}
		wRange := late.Write.Rel().Range()
		for _, early := range sc.Stmts {
			if early.Index >= late.Index {
				break
			}
			if early.Write != nil && early.Write.Array() == late.Write.Array() {
				if !early.Write.Rel().Range().Intersect(wRange).IsEmpty() {
					return fmt.Errorf("deps: output hazard: statements %q and %q both write array %q",
						early.Name, late.Name, late.Write.Array())
				}
			}
			for _, rd := range early.ReadsFrom(late.Write.Array()) {
				if !rd.Range().Intersect(wRange).IsEmpty() {
					return fmt.Errorf("deps: anti hazard: statement %q overwrites array %q read by earlier statement %q",
						late.Name, late.Write.Array(), early.Name)
				}
			}
		}
	}
	return nil
}

// Freeze materializes the lazy ordering caches of every relation in
// the graph and returns g. A frozen graph serves Flow, ParallelDims,
// and the traversal accessors without internal mutation, so it may be
// shared by concurrent readers (see the freeze discipline in
// docs/PERFORMANCE.md).
func (g *Graph) Freeze() *Graph {
	for _, row := range g.flow {
		for _, m := range row {
			if m != nil {
				m.Freeze()
			}
		}
	}
	for _, m := range g.intra {
		if m != nil {
			m.Freeze()
		}
	}
	return g
}
