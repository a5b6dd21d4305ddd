package scop

import (
	"strings"
	"testing"

	"repro/internal/isl"
	"repro/internal/isl/aff"
)

// buildListing1 constructs the paper's Listing 1 SCoP for a given N:
//
//	for(i=0;i<N-1;i++) for(j=0;j<N-1;j++)
//	  S: A[i][j] = f(A[i][j], A[i][j+1], A[i+1][j+1]);
//	for(i=0;i<N/2-1;i++) for(j=0;j<N/2-1;j++)
//	  R: B[i][j] = g(A[i][2j], B[i][j+1], B[i+1][j+1], B[i][j]);
func buildListing1(t *testing.T, n int) *SCoP {
	t.Helper()
	b := NewBuilder("listing1")
	b.Array("A", 2).Array("B", 2)
	b.Stmt("S", aff.RectDomain("S", n-1, n-1)).
		Writes("A", aff.Var(2, 0), aff.Var(2, 1)).
		Reads("A", aff.Var(2, 0), aff.Var(2, 1)).
		Reads("A", aff.Var(2, 0), aff.Linear(1, 0, 1)).
		Reads("A", aff.Linear(1, 1, 0), aff.Linear(1, 0, 1))
	b.Stmt("R", aff.RectDomain("R", n/2-1, n/2-1)).
		Writes("B", aff.Var(2, 0), aff.Var(2, 1)).
		Reads("A", aff.Var(2, 0), aff.Linear(0, 0, 2)).
		Reads("B", aff.Var(2, 0), aff.Linear(1, 0, 1)).
		Reads("B", aff.Linear(1, 1, 0), aff.Linear(1, 0, 1)).
		Reads("B", aff.Var(2, 0), aff.Var(2, 1))
	sc, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return sc
}

func TestBuildListing1(t *testing.T) {
	sc := buildListing1(t, 20)
	if len(sc.Stmts) != 2 {
		t.Fatalf("statements = %d", len(sc.Stmts))
	}
	s := sc.Statement("S")
	r := sc.Statement("R")
	if s == nil || r == nil {
		t.Fatal("missing statements")
	}
	if s.Domain().Card() != 19*19 {
		t.Errorf("S domain card = %d, want %d", s.Domain().Card(), 19*19)
	}
	if r.Domain().Card() != 9*9 {
		t.Errorf("R domain card = %d, want %d", r.Domain().Card(), 9*9)
	}
	if got := r.ReadsFrom("A"); len(got) != 1 {
		t.Errorf("R reads from A: %d relations", len(got))
	}
	if got := r.ReadsFrom("B"); len(got) != 3 {
		t.Errorf("R reads from B: %d relations", len(got))
	}
	// R reads A[i][2j]: instance (1, 3) reads A[1][6].
	aRead := r.ReadsFrom("A")[0]
	if got := aRead.Image(isl.NewVec(1, 3)); !got.Eq(isl.NewVec(1, 6)) {
		t.Errorf("A read image = %v", got)
	}
	if sc.TotalIterations() != 19*19+9*9 {
		t.Errorf("TotalIterations = %d", sc.TotalIterations())
	}
	if sc.HasBodies() {
		t.Error("analysis-only scop reports bodies")
	}
}

func TestStatementLookupMissing(t *testing.T) {
	sc := buildListing1(t, 8)
	if sc.Statement("nope") != nil {
		t.Fatal("found nonexistent statement")
	}
}

func TestBuilderRejectsDuplicateArray(t *testing.T) {
	_, err := NewBuilder("x").Array("A", 1).Array("A", 2).Build()
	if err == nil || !strings.Contains(err.Error(), "declared twice") {
		t.Fatalf("err = %v", err)
	}
}

func TestBuilderRejectsUndeclaredArray(t *testing.T) {
	b := NewBuilder("x")
	b.Stmt("S", aff.RectDomain("S", 4)).Writes("A", aff.Var(1, 0))
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), "undeclared array") {
		t.Fatalf("err = %v", err)
	}
}

func TestBuilderRejectsTwoWrites(t *testing.T) {
	b := NewBuilder("x")
	b.Array("A", 1)
	b.Stmt("S", aff.RectDomain("S", 4)).
		Writes("A", aff.Var(1, 0)).
		Writes("A", aff.Var(1, 0))
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), "two writes") {
		t.Fatalf("err = %v", err)
	}
}

func TestBuilderRejectsNonInjectiveWrite(t *testing.T) {
	b := NewBuilder("x")
	b.Array("A", 1)
	// A[i/2] write collides for consecutive i.
	b.Stmt("S", aff.RectDomain("S", 4)).
		Writes("A", aff.FloorDiv(aff.Var(1, 0), 2))
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), "not injective") {
		t.Fatalf("err = %v", err)
	}
}

func TestBuilderRejectsArityMismatch(t *testing.T) {
	b := NewBuilder("x")
	b.Array("A", 2)
	b.Stmt("S", aff.RectDomain("S", 4)).
		Writes("A", aff.Var(2, 0), aff.Var(2, 1)) // domain depth 1, exprs arity 2
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("err = %v", err)
	}
}

func TestBuilderRejectsWrongIndexCount(t *testing.T) {
	b := NewBuilder("x")
	b.Array("A", 2)
	b.Stmt("S", aff.RectDomain("S", 4)).
		Writes("A", aff.Var(1, 0)) // one index for 2-D array
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), "dimensions") {
		t.Fatalf("err = %v", err)
	}
}

func TestBuilderRejectsEmptyDomain(t *testing.T) {
	b := NewBuilder("x")
	b.Array("A", 1)
	b.Stmt("S", aff.RectDomain("S", 0)).Writes("A", aff.Var(1, 0))
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), "empty iteration domain") {
		t.Fatalf("err = %v", err)
	}
}

func TestBuilderRejectsMismatchedSpaceName(t *testing.T) {
	b := NewBuilder("x")
	b.Array("A", 1)
	b.Stmt("S", aff.RectDomain("T", 4)).Writes("A", aff.Var(1, 0))
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), "name them identically") {
		t.Fatalf("err = %v", err)
	}
}

func TestBodiesRunnable(t *testing.T) {
	var count int
	b := NewBuilder("x")
	b.Array("A", 1)
	b.Stmt("S", aff.RectDomain("S", 5)).
		Writes("A", aff.Var(1, 0)).
		Body(func(iv isl.Vec) { count += iv[0] })
	sc := b.MustBuild()
	if !sc.HasBodies() {
		t.Fatal("HasBodies false")
	}
	sc.Stmts[0].Domain().Foreach(func(v isl.Vec) bool {
		sc.Stmts[0].Body(v)
		return true
	})
	if count != 0+1+2+3+4 {
		t.Fatalf("count = %d", count)
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := NewBuilder("x")
	b.Stmt("S", nil)
	b.MustBuild()
}
