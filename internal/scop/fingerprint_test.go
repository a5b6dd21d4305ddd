package scop

import (
	"testing"

	"repro/internal/isl/aff"
)

// buildFP constructs a two-nest producer/consumer SCoP; n parametrizes
// the domain size and stride tweaks one read access.
func buildFP(t *testing.T, name string, n, stride int) *SCoP {
	t.Helper()
	b := NewBuilder(name)
	b.Array("A", 1).Array("B", 1)
	b.Stmt("S", aff.NewDomain("S", aff.ConstBound(0, 0, n))).
		Writes("A", aff.Var(1, 0))
	b.Stmt("T", aff.NewDomain("T", aff.ConstBound(0, 0, n))).
		Writes("B", aff.Var(1, 0)).
		Reads("A", aff.Linear(0, stride))
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestFingerprintStableAcrossRebuilds: rebuilding identical content —
// even under a different SCoP name, with different Body closures —
// reproduces the fingerprint, while any polyhedral change moves it.
func TestFingerprintStableAcrossRebuilds(t *testing.T) {
	a := buildFP(t, "first", 8, 1)
	b := buildFP(t, "second", 8, 1)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical content fingerprints differ")
	}

	for name, other := range map[string]*SCoP{
		"different domain size": buildFP(t, "x", 9, 1),
		"different access":      buildFP(t, "x", 8, 2),
	} {
		if other.Fingerprint() == a.Fingerprint() {
			t.Errorf("%s: fingerprint collision", name)
		}
	}
}

// TestFingerprintParameterAware: the same symbolic program at two
// parameter bindings enumerates different domains and must not share a
// fingerprint (the "parameter-aware" half of content addressing).
func TestFingerprintParameterAware(t *testing.T) {
	small := buildFP(t, "p", 4, 1)
	large := buildFP(t, "p", 16, 1)
	if small.Fingerprint() == large.Fingerprint() {
		t.Fatal("parameter change did not move the fingerprint")
	}
}

// TestFingerprintOverwriteFlag: MayOverwrite selects the relaxed
// pipeline-map algorithm, so it must be part of the address.
func TestFingerprintOverwriteFlag(t *testing.T) {
	build := func(overwriting bool) *SCoP {
		b := NewBuilder("ow")
		b.Array("A", 1).Array("B", 1)
		sb := b.Stmt("S", aff.NewDomain("S", aff.ConstBound(0, 0, 6)))
		if overwriting {
			sb.WritesOverwriting("A", aff.Var(1, 0))
		} else {
			sb.Writes("A", aff.Var(1, 0))
		}
		b.Stmt("T", aff.NewDomain("T", aff.ConstBound(0, 0, 6))).
			Writes("B", aff.Var(1, 0)).
			Reads("A", aff.Var(1, 0))
		sc, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	if build(true).Fingerprint() == build(false).Fingerprint() {
		t.Fatal("MayOverwrite ignored by fingerprint")
	}
}

// TestFingerprintStatementOrder: statement order is the schedule; a
// reordered program is a different program.
func TestFingerprintStatementOrder(t *testing.T) {
	build := func(first, second string) *SCoP {
		b := NewBuilder("ord")
		b.Array("A", 1).Array("B", 1)
		b.Stmt(first, aff.NewDomain(first, aff.ConstBound(0, 0, 5))).
			Writes("A", aff.Var(1, 0))
		b.Stmt(second, aff.NewDomain(second, aff.ConstBound(0, 0, 5))).
			Writes("B", aff.Var(1, 0))
		sc, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	if build("S", "T").Fingerprint() == build("T", "S").Fingerprint() {
		t.Fatal("statement order ignored by fingerprint")
	}
}

func TestFingerprintString(t *testing.T) {
	s := buildFP(t, "s", 4, 1).Fingerprint().String()
	if len(s) != 32 {
		t.Fatalf("fingerprint string %q has length %d, want 32", s, len(s))
	}
}

// TestFingerprintCanonicalCoefficients: a nil coefficient vector and
// an all-zero one describe the same expression and hash alike, while a
// floor term's denominator is part of the content.
func TestFingerprintCanonicalCoefficients(t *testing.T) {
	build := func(lo aff.Expr, idx aff.Expr) *SCoP {
		b := NewBuilder("c")
		b.Array("A", 1)
		b.Stmt("S", aff.NewDomain("S", aff.ConstBound(0, 0, 4),
			aff.LoopBound{Lo: lo, Hi: aff.Const(1, 4)})).
			WritesOverwriting("A", idx)
		sc, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	half := aff.FloorDiv(aff.Var(2, 1), 2)
	nilCoeffs := build(aff.Expr{NVars: 1}, half)
	zeroCoeffs := build(aff.Expr{NVars: 1, Coeffs: []int{0}}, half)
	if nilCoeffs.Fingerprint() != zeroCoeffs.Fingerprint() {
		t.Fatal("nil and all-zero coefficient vectors fingerprint differently")
	}
	third := build(aff.Expr{NVars: 1}, aff.FloorDiv(aff.Var(2, 1), 3))
	if third.Fingerprint() == nilCoeffs.Fingerprint() {
		t.Fatal("floor denominator ignored by fingerprint")
	}
}
