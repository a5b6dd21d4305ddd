// Package scop defines the polyhedral intermediate representation the
// pipeline detector operates on: a static control part (SCoP) made of
// consecutive loop nests, each contributing one statement with an
// iteration domain, affine memory accesses, and an executable body.
//
// The representation plays the role of Polly's SCoP extracted from
// LLVM-IR. It can be constructed programmatically with Builder or
// parsed from the small C-like DSL in package lang.
package scop

import (
	"fmt"
	"sync"

	"repro/internal/isl"
	"repro/internal/isl/aff"
)

// Array describes one memory space accessed by the SCoP. Dim is the
// dimensionality of the index tuples used by access relations; it need
// not equal the declared dimensionality of the underlying storage (for
// example, chained matrix products access row-granular memory with
// 1-dimensional indices).
type Array struct {
	Name string
	Dim  int
}

// Body executes one dynamic instance of a statement. The iteration
// vector identifies the instance; the closure captures whatever data
// the statement touches. Bodies must be safe to call concurrently for
// *different* iteration vectors as long as the polyhedral dependences
// are respected.
type Body func(iter isl.Vec)

// AccessRef is one memory access of a statement: the symbolic affine
// access, which is the source of truth, plus an accessor for its
// enumerated relation from the statement's iteration domain to the
// array's index space.
type AccessRef struct {
	Access aff.Access
	// MayOverwrite marks a write access that is allowed to be
	// non-injective (several iterations writing one cell). The paper's
	// algorithm assumes injective writes; the relaxed extension (§7)
	// pipelines against the last writer of each cell instead.
	MayOverwrite bool

	// owner and slot locate the enumerated relation in the owning
	// statement (slot 0 is the write, 1+i is Reads[i]), so copies of
	// the value resolve to the same relation.
	owner *Statement
	slot  int
}

// Array returns the name of the accessed array.
func (a AccessRef) Array() string { return a.Access.Array }

// Rel returns the access relation enumerated over the statement's
// domain, materializing the owning statement on first use.
func (a AccessRef) Rel() *isl.Map { return a.owner.materialize().rels[a.slot] }

// Statement is one loop nest's statement: its symbolic iteration
// domain, its single write access (the paper assumes one injective
// write per statement), its read accesses, and its executable body.
//
// The affine description — Spec plus the accesses' aff.Access and
// MayOverwrite — is the statement's content. The enumerated domain and
// access relations are derived from it on first use (Domain, Rel), so
// consumers that never need points (fingerprinting, the symbolic
// backend, the detection cache's hit path) never enumerate. Spec and
// the accesses must not change once the statement is built.
type Statement struct {
	Name  string
	Index int         // position in textual program order
	Spec  *aff.Domain // symbolic domain: the source of truth
	Write *AccessRef  // nil for pure-read statements
	Reads []AccessRef
	Body  Body // nil for analysis-only SCoPs

	// once guards the enumeration; domain (frozen) and rels are
	// written exactly once inside it and read-only afterwards.
	once   sync.Once
	domain *isl.Set
	rels   []*isl.Map
}

// materialize enumerates the domain and every access relation once
// and returns s. The domain is published frozen: its lazy ordering
// caches are filled before any reader can see it, so concurrent
// readers never mutate it. The access relations are appended in the
// domain's lexicographic order and so are published already
// normalized, exactly as an eager build leaves them.
func (s *Statement) materialize() *Statement {
	s.once.Do(func() {
		dom := s.Spec.Enumerate().Freeze()
		rels := make([]*isl.Map, 1+len(s.Reads))
		if s.Write != nil {
			rels[0] = s.Write.Access.Relation(dom)
		}
		for i := range s.Reads {
			rels[1+i] = s.Reads[i].Access.Relation(dom)
		}
		s.domain, s.rels = dom, rels
	})
	return s
}

// Domain returns the enumerated iteration domain, materializing it on
// first use. The returned set is frozen and shared: treat it as
// read-only.
func (s *Statement) Domain() *isl.Set { return s.materialize().domain }

// Space returns the statement's iteration space.
func (s *Statement) Space() isl.Space { return s.Spec.Space }

// Depth returns the loop-nest depth (domain dimensionality).
func (s *Statement) Depth() int { return s.Spec.Space.Dim }

// ReadsFrom returns the read relations of s that target the named
// array.
func (s *Statement) ReadsFrom(array string) []*isl.Map {
	var rels []*isl.Map
	for i := range s.Reads {
		if s.Reads[i].Array() == array {
			rels = append(rels, s.Reads[i].Rel())
		}
	}
	return rels
}

// SCoP is a static control part: an ordered sequence of statements
// (one per loop nest) over a set of arrays.
type SCoP struct {
	Name   string
	Arrays map[string]*Array
	Stmts  []*Statement

	// fp memoizes Fingerprint; fpOnce makes the first computation the
	// only one, so concurrent callers share one result.
	fpOnce sync.Once
	fp     Fingerprint
}

// Statement returns the statement with the given name, or nil.
func (sc *SCoP) Statement(name string) *Statement {
	for _, s := range sc.Stmts {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// ValidationError reports a SCoP that breaks an invariant the
// pipeline algorithms rely on. It is typed so callers (the serving
// layer above all) can tell a malformed program from a well-formed one
// the transformation declines.
type ValidationError struct {
	SCoP   string // the SCoP's name
	Reason string // what is wrong, naming the statement or array
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("scop %q: %s", e.SCoP, e.Reason)
}

func invalidf(name, format string, args ...any) error {
	return &ValidationError{SCoP: name, Reason: fmt.Sprintf(format, args...)}
}

// Validate checks every invariant the pipeline algorithms rely on: the
// structural ones of ValidateShallow, then non-empty iteration domains
// and injective writes (the paper's no-overwrite assumption). The last
// two read enumerated points, so Validate materializes every
// statement. Failures are *ValidationError.
func (sc *SCoP) Validate() error {
	if err := sc.ValidateShallow(); err != nil {
		return err
	}
	for _, s := range sc.Stmts {
		if s.Domain().IsEmpty() {
			return invalidf(sc.Name, "statement %q has an empty iteration domain", s.Name)
		}
		if s.Write != nil && !s.Write.MayOverwrite && !s.Write.Rel().IsInjective() {
			return invalidf(sc.Name, "statement %q write access to %q is not injective (the transformation requires no over-writes; declare the access with WritesOverwriting to opt into the relaxed extension)",
				s.Name, s.Write.Array())
		}
	}
	return nil
}

// ValidateShallow checks the structural invariants — unique statement
// names in index order, a symbolic domain named after its statement,
// declared arrays, and access arities matching the array and the
// domain — without enumerating anything: its cost is linear in the
// description. The symbolic detection backend (internal/core's
// DetectSymbolic) uses it and establishes non-emptiness and
// injectivity from the closed forms instead.
func (sc *SCoP) ValidateShallow() error {
	seen := make(map[string]bool)
	for i, s := range sc.Stmts {
		if s.Name == "" {
			return invalidf(sc.Name, "statement %d has no name", i)
		}
		if seen[s.Name] {
			return invalidf(sc.Name, "duplicate statement name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Index != i {
			return invalidf(sc.Name, "statement %q has index %d, expected %d", s.Name, s.Index, i)
		}
		if s.Spec == nil {
			return invalidf(sc.Name, "statement %q has no symbolic domain", s.Name)
		}
		if s.Spec.Space.Name != s.Name {
			return invalidf(sc.Name, "statement %q domain is in space %q; name them identically", s.Name, s.Spec.Space.Name)
		}
		accs := make([]*AccessRef, 0, len(s.Reads)+1)
		if s.Write != nil {
			accs = append(accs, s.Write)
		}
		for j := range s.Reads {
			accs = append(accs, &s.Reads[j])
		}
		for _, a := range accs {
			arr, ok := sc.Arrays[a.Array()]
			if !ok {
				return invalidf(sc.Name, "statement %q accesses undeclared array %q", s.Name, a.Array())
			}
			if len(a.Access.Exprs) != arr.Dim {
				return invalidf(sc.Name, "statement %q accesses %q with %d indices, array has %d dimensions",
					s.Name, arr.Name, len(a.Access.Exprs), arr.Dim)
			}
			for _, e := range a.Access.Exprs {
				if e.NVars != s.Depth() {
					return invalidf(sc.Name, "statement %q access to %q has index arity %d, domain depth is %d",
						s.Name, arr.Name, e.NVars, s.Depth())
				}
			}
		}
	}
	return nil
}

// TotalIterations returns the number of dynamic statement instances.
func (sc *SCoP) TotalIterations() int {
	n := 0
	for _, s := range sc.Stmts {
		n += s.Domain().Card()
	}
	return n
}

// HasBodies reports whether every statement carries an executable body.
func (sc *SCoP) HasBodies() bool {
	for _, s := range sc.Stmts {
		if s.Body == nil {
			return false
		}
	}
	return true
}
