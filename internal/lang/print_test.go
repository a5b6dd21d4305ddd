package lang

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fuzzscop"
	"repro/internal/scop"
)

func TestUnparseListing1RoundTrip(t *testing.T) {
	sc, err := Parse("listing1", listing1Src)
	if err != nil {
		t.Fatal(err)
	}
	src, err := Unparse(sc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse("rt", src)
	if err != nil {
		t.Fatalf("unparsed source does not parse: %v\n%s", err, src)
	}
	assertSameShape(t, sc, back)
}

func assertSameShape(t *testing.T, a, b *scop.SCoP) {
	t.Helper()
	if len(a.Stmts) != len(b.Stmts) {
		t.Fatalf("statement count %d != %d", len(a.Stmts), len(b.Stmts))
	}
	for i, s := range a.Stmts {
		got := b.Stmts[i]
		if got.Name != s.Name {
			t.Fatalf("stmt %d name %q != %q", i, got.Name, s.Name)
		}
		if !got.Domain().Equal(s.Domain()) {
			t.Fatalf("stmt %s domain differs", s.Name)
		}
		if !got.Write.Rel().Equal(s.Write.Rel()) {
			t.Fatalf("stmt %s write differs", s.Name)
		}
		if len(got.Reads) != len(s.Reads) {
			t.Fatalf("stmt %s reads %d != %d", s.Name, len(got.Reads), len(s.Reads))
		}
		for k := range s.Reads {
			if !got.Reads[k].Rel().Equal(s.Reads[k].Rel()) {
				t.Fatalf("stmt %s read %d differs", s.Name, k)
			}
		}
	}
}

// TestUnparseFuzzRoundTrip unparses random SCoPs (generated with
// guaranteed reads so the DSL statement form is exact) and re-parses
// them; domains and access relations must survive unchanged.
func TestUnparseFuzzRoundTrip(t *testing.T) {
	for seed := int64(9000); seed < 9080; seed++ {
		r := rand.New(rand.NewSource(seed))
		sc := fuzzscop.Random(r, fuzzscop.Config{SelfSerial: AlwaysSerialCfg()})
		src, err := Unparse(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		back, err := Parse("rt", src)
		if err != nil {
			t.Fatalf("seed %d: unparsed source does not parse: %v\n%s", seed, err, src)
		}
		assertSameShape(t, sc, back)
	}
}

// AlwaysSerialCfg avoids importing the fuzzscop constant at every call
// site in this file.
func AlwaysSerialCfg() fuzzscop.SerialMode { return fuzzscop.AlwaysSerial }

func TestUnparseTriangular(t *testing.T) {
	src := `
for (i = 0; i < 6; i++)
  for (j = 0; j < i + 1; j++)
    S: A[i][j] = f(A[i][j], A[i][j+1]);
for (i = 0; i < 6; i++)
  for (j = 0; j < i + 1; j++)
    T: B[i][j] = g(A[i][j], B[i][j+1]);
`
	sc, err := Parse("tri", src)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unparse(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "j < i + 1") {
		t.Fatalf("triangular bound lost:\n%s", out)
	}
	back, err := Parse("rt", out)
	if err != nil {
		t.Fatal(err)
	}
	assertSameShape(t, sc, back)
}

func TestUnparseNoReadStatement(t *testing.T) {
	// A read-free statement gains a self-read in the DSL form (the
	// call syntax needs an argument); the result must still parse and
	// keep the same domain and write.
	src := `
for (i = 0; i < 4; i++)
  S: A[i] = f(A[i]);
`
	sc, err := Parse("x", src)
	if err != nil {
		t.Fatal(err)
	}
	sc.Stmts[0].Reads = nil // make it read-free
	out, err := Unparse(sc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse("rt", out)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Stmts[0].Domain().Equal(sc.Stmts[0].Domain()) ||
		!back.Stmts[0].Write.Rel().Equal(sc.Stmts[0].Write.Rel()) {
		t.Fatal("domain or write lost")
	}
}

func TestUnparseErrors(t *testing.T) {
	sc, err := Parse("x", "for (i = 0; i < 4; i++) S: A[i] = f(A[i]);")
	if err != nil {
		t.Fatal(err)
	}
	sc.Stmts[0].Spec = nil
	if _, err := Unparse(sc); err == nil {
		t.Fatal("missing spec accepted")
	}
}
