package deps

import (
	"sync"
	"testing"

	"repro/internal/isl/aff"
	"repro/internal/scop"
)

// TestParallelDimsMemoized: ParallelDims computes once per statement,
// answers concurrent callers (run under -race) identically, and hands
// each caller its own slice.
func TestParallelDimsMemoized(t *testing.T) {
	b := scop.NewBuilder("pd")
	b.Array("A", 2)
	// A[i][j] = f(A[i-1][j]): the outer loop carries a dependence, the
	// inner one does not.
	b.Stmt("S", aff.NewDomain("S", aff.ConstBound(0, 1, 8), aff.ConstBound(1, 0, 8))).
		Writes("A", aff.Var(2, 0), aff.Var(2, 1)).
		Reads("A", aff.Linear(-1, 1, 0), aff.Var(2, 1))
	sc := b.MustBuild()
	g := Analyze(sc)
	s := sc.Stmts[0]

	var wg sync.WaitGroup
	got := make([][]bool, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = g.ParallelDims(s)
		}(i)
	}
	wg.Wait()
	for i, pd := range got {
		if len(pd) != 2 || pd[0] || !pd[1] {
			t.Fatalf("caller %d: ParallelDims = %v, want [false true]", i, pd)
		}
	}
	got[0][1] = false
	if pd := g.ParallelDims(s); !pd[1] {
		t.Fatal("a caller's edit leaked into the memoized answer")
	}
}
