package scop

import (
	"fmt"
	"sort"

	"repro/internal/isl"
	"repro/internal/isl/aff"
)

// Fingerprint is a 128-bit content address of a SCoP's affine
// description: everything pipeline detection reads — statement order,
// names, symbolic iteration domains, affine accesses and their
// overwrite flags — and nothing it does not (bodies, builder history,
// pointer identity). The enumerated domains and relations are
// functions of the description, so two SCoPs with equal fingerprints
// produce bit-identical detection results, which is what lets a
// serving process reuse one frozen *core.Info across requests (see
// internal/cache).
type Fingerprint [2]uint64

// String renders the fingerprint as 32 hex digits.
func (f Fingerprint) String() string {
	return fmt.Sprintf("%016x%016x", f[0], f[1])
}

// Fingerprint computes the content address of sc, memoized per
// instance: the first call hashes, every later call returns the stored
// value, and concurrent callers share one computation. The SCoP must
// no longer be under construction by then; Builder.Build and FromJSON
// are the usual boundaries.
//
// The hash reads the affine description only, never enumerated points,
// so its cost is linear in the size of the description and independent
// of domain volume. It is canonical over representation choices that
// do not change the description: arrays are folded in sorted-name
// order (the Arrays map has no order), statements in schedule order,
// a missing coefficient vector hashes as all zeros, and floor terms
// hash recursively. It is parameter-aware: the same program text
// instantiated at different parameter bindings (ParseWithParams) has
// different constant bounds and therefore fingerprints differently.
//
// It is not a hash of point sets: two textually different descriptions
// of one point set (a bound written as a constraint, a read split into
// two) fingerprint differently and so do not share a cache entry.
func (sc *SCoP) Fingerprint() Fingerprint {
	sc.fpOnce.Do(func() { sc.fp = sc.fingerprint() })
	return sc.fp
}

func (sc *SCoP) fingerprint() Fingerprint {
	d := isl.NewDigest()
	// sc.Name is deliberately excluded: the address is the content, so
	// the same program registered under two SCoP names shares one cache
	// entry. Statement and array names participate — tuple spaces are
	// keyed by them, so they are part of the polyhedral content.
	names := make([]string, 0, len(sc.Arrays))
	for name := range sc.Arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	d.WriteInt(len(names))
	for _, name := range names {
		d.WriteString(name)
		d.WriteInt(sc.Arrays[name].Dim)
	}
	d.WriteInt(len(sc.Stmts))
	for _, s := range sc.Stmts {
		hashStatement(d, s)
	}
	lo, hi := d.Sum128()
	return Fingerprint{lo, hi}
}

// hashStatement folds one statement: its schedule position, name,
// symbolic domain, write (with the overwrite flag, which selects the
// relaxed algorithm), and reads in declaration order. Read order is
// kept because unionReads walks declarations; the union is order-free,
// but keeping the declared order hashes strictly more than detection
// needs and stays trivially canonical.
func hashStatement(d *isl.Digest, s *Statement) {
	d.WriteInt(s.Index)
	d.WriteString(s.Name)
	hashDomain(d, s.Spec)
	if s.Write == nil {
		d.WriteInt(0)
	} else {
		d.WriteInt(1)
		hashAccess(d, s.Write)
	}
	d.WriteInt(len(s.Reads))
	for i := range s.Reads {
		hashAccess(d, &s.Reads[i])
	}
}

// hashDomain folds the loop-nest bounds and the extra constraints.
func hashDomain(d *isl.Digest, spec *aff.Domain) {
	d.WriteInt(len(spec.Bounds))
	for _, b := range spec.Bounds {
		hashExpr(d, b.Lo)
		hashExpr(d, b.Hi)
	}
	d.WriteInt(len(spec.Constraints))
	for _, c := range spec.Constraints {
		d.WriteInt(int(c.Kind))
		hashExpr(d, c.E)
	}
}

func hashAccess(d *isl.Digest, a *AccessRef) {
	d.WriteString(a.Array())
	if a.MayOverwrite {
		d.WriteInt(1)
	} else {
		d.WriteInt(0)
	}
	d.WriteInt(len(a.Access.Exprs))
	for _, e := range a.Access.Exprs {
		hashExpr(d, e)
	}
}

// hashExpr folds an expression with every coefficient written out (a
// nil coefficient vector and an all-zero one hash alike) and its floor
// terms recursively.
func hashExpr(d *isl.Digest, e aff.Expr) {
	d.WriteInt(e.NVars)
	d.WriteInt(e.Const)
	for i := 0; i < e.NVars; i++ {
		d.WriteInt(e.Coeff(i))
	}
	d.WriteInt(len(e.Divs))
	for _, t := range e.Divs {
		d.WriteInt(t.Coef)
		d.WriteInt(t.Den)
		hashExpr(d, t.Inner)
	}
}
