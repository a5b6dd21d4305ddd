package lang

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/isl"
)

const listing1Src = `
// Listing 1 with N = 20
for (i = 0; i < 19; i++)
  for (j = 0; j < 19; j++)
    S: A[i][j] = f(A[i][j], A[i][j+1], A[i+1][j+1]);
for (i = 0; i < 9; i++)
  for (j = 0; j < 9; j++)
    R: B[i][j] = g(A[i][2*j], B[i][j+1], B[i+1][j+1], B[i][j]);
`

func TestParseListing1(t *testing.T) {
	sc, err := Parse("listing1", listing1Src)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Stmts) != 2 {
		t.Fatalf("statements = %d", len(sc.Stmts))
	}
	s := sc.Statement("S")
	if s.Domain().Card() != 19*19 {
		t.Errorf("S card = %d", s.Domain().Card())
	}
	r := sc.Statement("R")
	if r.Domain().Card() != 9*9 {
		t.Errorf("R card = %d", r.Domain().Card())
	}
	if got := r.ReadsFrom("A")[0].Image(isl.NewVec(2, 3)); !got.Eq(isl.NewVec(2, 6)) {
		t.Errorf("A read image = %v", got)
	}
	if len(sc.Arrays) != 2 || sc.Arrays["A"].Dim != 2 {
		t.Errorf("arrays = %v", sc.Arrays)
	}
}

// TestParsedListing1MatchesPaperPipelineMap ties the whole front end
// to the §4.1 worked example.
func TestParsedListing1MatchesPaperPipelineMap(t *testing.T) {
	sc, err := Parse("listing1", listing1Src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := core.Detect(sc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Pairs) != 1 {
		t.Fatalf("pairs = %d", len(info.Pairs))
	}
	pm := info.Pairs[0].T
	for i0 := 0; i0 <= 8; i0++ {
		for o1 := 0; o1 <= 8; o1++ {
			if !pm.Contains(isl.NewVec(i0, 2*o1), isl.NewVec(i0, o1)) {
				t.Fatalf("pipeline map missing S[%d,%d] -> R[%d,%d]", i0, 2*o1, i0, o1)
			}
		}
	}
	if pm.Card() != 81 {
		t.Fatalf("pipeline map card = %d, want 81", pm.Card())
	}
}

func TestParseBracedAndComments(t *testing.T) {
	src := `
for (i = 0; i < 4; i++) {   // braces allowed
  for (j = 0; j < 4; j++) {
    S: A[i][j] = f(B[i][j]); // reads an input array
  }
}
for (i = 0; i < 4; i++) {
  for (j = 0; j < 4; j++) {
    T: C[i][j] = g(A[i][j]);
  }
}
`
	sc, err := Parse("p", src)
	if err != nil {
		t.Fatal(err)
	}
	g := deps.Analyze(sc)
	if !g.DependsOn(sc.Statement("T"), sc.Statement("S")) {
		t.Fatal("T should depend on S")
	}
}

func TestParseAffineBounds(t *testing.T) {
	// Triangular nest: inner bound references the outer variable.
	src := `
for (i = 0; i < 5; i++)
  for (j = 0; j < i + 1; j++)
    S: A[i][j] = f(A[i][j]);
`
	sc, err := Parse("tri", src)
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Statement("S").Domain().Card(); got != 15 {
		t.Fatalf("triangle card = %d, want 15", got)
	}
}

func TestParseDivisionAndNegation(t *testing.T) {
	src := `
for (i = 0; i < 10; i++)
  S: A[i/2] = f(B[10 - i - 1]);
`
	// A[i/2] is not injective -> builder must reject it.
	_, err := Parse("d", src)
	if err == nil || !strings.Contains(err.Error(), "not injective") {
		t.Fatalf("err = %v", err)
	}

	src2 := `
for (i = 0; i < 10; i++)
  S: A[i] = f(B[(i + 4) / 2], C[2*(i - 1)]);
`
	sc, err := Parse("d2", src2)
	if err != nil {
		t.Fatal(err)
	}
	s := sc.Statement("S")
	if got := s.ReadsFrom("B")[0].Image(isl.NewVec(5)); !got.Eq(isl.NewVec(4)) {
		t.Errorf("B image = %v", got)
	}
	if got := s.ReadsFrom("C")[0].Image(isl.NewVec(5)); !got.Eq(isl.NewVec(8)) {
		t.Errorf("C image = %v", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"empty", "", "no loop nests"},
		{"badChar", "for (i = 0; i < 4; i++) S: A[i] = f(B[i]) @;", "unexpected character"},
		{"wrongCondVar", "for (i = 0; j < 4; i++) S: A[i] = f(B[i]);", "condition"},
		{"wrongIncVar", "for (i = 0; i < 4; j++) S: A[i] = f(B[i]);", "increment"},
		{"shadow", "for (i = 0; i < 4; i++) for (i = 0; i < 4; i++) S: A[i][i] = f(B[i][i]);", "shadows"},
		{"unknownVar", "for (i = 0; i < 4; i++) S: A[k] = f(B[i]);", "unknown variable"},
		{"nonAffine", "for (i = 0; i < 4; i++) for (j = 0; j < 4; j++) S: A[i][j] = f(B[i*j][j]);", "non-affine"},
		{"divByVar", "for (i = 0; i < 4; i++) S: A[i] = f(B[4/i]);", "divisor"},
		{"noSubscript", "for (i = 0; i < 4; i++) S: A = f(B[i]);", "no subscripts"},
		{"dupStmt", "for (i = 0; i < 4; i++) S: A[i] = f(B[i]);\nfor (i = 0; i < 4; i++) S: C[i] = f(A[i]);", "duplicate statement"},
		{"mixedDims", "for (i = 0; i < 4; i++) S: A[i] = f(B[i]);\nfor (i = 0; i < 4; i++) T: C[i] = f(A[i][i]);", "subscripts"},
		{"ownVarInBound", "for (i = 0; i < i + 3; i++) S: A[i] = f(B[i]);", "unknown variable"},
		{"truncated", "for (i = 0; i < 4", "expected"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.name, c.src)
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want substring %q", err, c.want)
			}
		})
	}
}

func TestParseParams(t *testing.T) {
	src := `
param N = 20;
param HALF = N / 2;
for (i = 0; i < N - 1; i++)
  for (j = 0; j < N - 1; j++)
    S: A[i][j] = f(A[i][j], A[i][j+1], A[i+1][j+1]);
for (i = 0; i < HALF - 1; i++)
  for (j = 0; j < HALF - 1; j++)
    R: B[i][j] = g(A[i][2*j], B[i][j+1], B[i+1][j+1], B[i][j]);
`
	sc, err := Parse("paper", src)
	if err != nil {
		t.Fatal(err)
	}
	// Identical to the hard-coded Listing 1 with N = 20.
	ref, err := Parse("ref", listing1Src)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Statement("S").Domain().Equal(ref.Statement("S").Domain()) {
		t.Error("param-based S domain differs")
	}
	if !sc.Statement("R").Domain().Equal(ref.Statement("R").Domain()) {
		t.Error("param-based R domain differs")
	}
}

func TestParseParamErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"dup", "param N = 3;\nparam N = 4;\nfor (i = 0; i < N; i++) S: A[i] = f(B[i]);", "declared twice"},
		{"reserved", "param for = 3;", "reserved word"},
		{"varInParam", "param N = i;", "unknown variable"},
		{"missingSemi", "param N = 3 for (i = 0; i < N; i++) S: A[i] = f(B[i]);", "expected"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.name, c.src)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want %q", err, c.want)
			}
		})
	}
}

func TestParamShadowedByLoopVar(t *testing.T) {
	// A loop variable with the same name takes precedence inside the
	// loop.
	src := `
param k = 7;
for (k = 0; k < 4; k++)
  S: A[k] = f(B[k]);
`
	sc, err := Parse("shadow", src)
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Statement("S").Domain().Card(); got != 4 {
		t.Fatalf("card = %d, want 4 (loop var must shadow param)", got)
	}
}

func TestParseListing3EndToEnd(t *testing.T) {
	src := `
for (i = 0; i < 11; i++)
  for (j = 0; j < 11; j++)
    S: A[i][j] = f(A[i][j], A[i][j+1], A[i+1][j+1]);
for (i = 0; i < 5; i++)
  for (j = 0; j < 5; j++)
    R: B[i][j] = g(A[i][2*j], B[i][j+1], B[i+1][j+1], B[i][j]);
for (i = 0; i < 5; i++)
  for (j = 0; j < 5; j++)
    U: C[i][j] = h(A[2*i][2*j], B[i][j], C[i][j+1], C[i+1][j+1], C[i][j]);
`
	sc, err := Parse("listing3", src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := core.Detect(sc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Pairs) != 3 {
		t.Fatalf("pairs = %d, want 3 (S->R, S->U, R->U)", len(info.Pairs))
	}
	u := info.Stmt("U")
	if len(u.InDeps) != 2 {
		t.Fatalf("U in-deps = %d", len(u.InDeps))
	}
}

func TestArrayDeclarationsBoundsCheck(t *testing.T) {
	good := `
param N = 8;
array A[8][8];
array B[4][4];
for (i = 0; i < N - 1; i++)
  for (j = 0; j < N - 1; j++)
    S: A[i][j] = f(A[i][j], A[i+1][j+1]);
for (i = 0; i < 3; i++)
  for (j = 0; j < 3; j++)
    R: B[i][j] = g(A[2*i][2*j], B[i][j]);
`
	if _, err := Parse("good", good); err != nil {
		t.Fatalf("in-bounds program rejected: %v", err)
	}

	outOfBounds := `
array A[4];
for (i = 0; i < 4; i++)
  S: A[i] = f(A[i+1]);
`
	if _, err := Parse("oob", outOfBounds); err == nil ||
		!strings.Contains(err.Error(), "outside the declared extents") {
		t.Fatalf("err = %v", err)
	}

	wrongDims := `
array A[4][4];
for (i = 0; i < 4; i++)
  S: A[i] = f(A[i]);
`
	if _, err := Parse("dims", wrongDims); err == nil ||
		!strings.Contains(err.Error(), "dimensions") {
		t.Fatalf("err = %v", err)
	}

	undeclaredUnchecked := `
for (i = 0; i < 4; i++)
  S: A[i] = f(A[i+100]);
`
	if _, err := Parse("loose", undeclaredUnchecked); err != nil {
		t.Fatalf("undeclared array should not be bounds-checked: %v", err)
	}
}

func TestArrayDeclarationErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"dup", "array A[4];\narray A[4];\nfor (i = 0; i < 4; i++) S: A[i] = f(A[i]);", "declared twice"},
		{"noExt", "array A;\nfor (i = 0; i < 4; i++) S: A[i] = f(A[i]);", "without extents"},
		{"zeroExt", "array A[0];\nfor (i = 0; i < 4; i++) S: A[i] = f(A[i]);", "non-positive extent"},
		{"missingSemi", "array A[4]\nfor (i = 0; i < 4; i++) S: A[i] = f(A[i]);", "expected"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.name, c.src)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want %q", err, c.want)
			}
		})
	}
}

func TestParseWithParams(t *testing.T) {
	src := `
param N = 4;
for (i = 0; i < N; i++)
  S: A[i] = f(A[i]);
`
	// Default from the source.
	sc, err := ParseWithParams("deflt", src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Statement("S").Domain().Card() != 4 {
		t.Fatalf("default card = %d", sc.Statement("S").Domain().Card())
	}
	// Caller override.
	sc, err = ParseWithParams("bound", src, map[string]int{"N": 9})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Statement("S").Domain().Card() != 9 {
		t.Fatalf("bound card = %d", sc.Statement("S").Domain().Card())
	}
	// Binding without a source declaration also works.
	noDecl := `
for (i = 0; i < M; i++)
  S: A[i] = f(A[i]);
`
	sc, err = ParseWithParams("nodecl", noDecl, map[string]int{"M": 6})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Statement("S").Domain().Card() != 6 {
		t.Fatalf("nodecl card = %d", sc.Statement("S").Domain().Card())
	}
}
