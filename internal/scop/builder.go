package scop

import "repro/internal/isl/aff"

// Builder assembles a SCoP incrementally. Typical use:
//
//	b := scop.NewBuilder("listing1")
//	b.Array("A", 2)
//	b.Stmt("S", aff.RectDomain("S", n, n)).
//	    Writes("A", aff.Var(2, 0), aff.Var(2, 1)).
//	    Reads("A", aff.Var(2, 0), aff.Linear(1, 0, 1)).
//	    Body(func(iv isl.Vec) { ... })
//	sc, err := b.Build()
type Builder struct {
	scop *SCoP
	err  error
}

// NewBuilder returns a builder for a SCoP with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{scop: &SCoP{
		Name:   name,
		Arrays: make(map[string]*Array),
	}}
}

// Array declares an array (memory space) with the given index-space
// dimensionality.
func (b *Builder) Array(name string, dim int) *Builder {
	if b.err != nil {
		return b
	}
	if _, dup := b.scop.Arrays[name]; dup {
		b.err = invalidf(b.scop.Name, "array %q declared twice", name)
		return b
	}
	if dim <= 0 {
		b.err = invalidf(b.scop.Name, "array %q has non-positive dimension %d", name, dim)
		return b
	}
	b.scop.Arrays[name] = &Array{Name: name, Dim: dim}
	return b
}

// StmtBuilder configures one statement of a SCoP under construction.
type StmtBuilder struct {
	b    *Builder
	stmt *Statement
}

// Stmt starts a new statement with the given name and symbolic domain.
// Statements are ordered by the sequence of Stmt calls, which must
// match textual program order. The domain must be non-nil and in a
// space named like the statement (Build checks both); it is enumerated
// by Build, or on first use for SCoPs decoded by FromJSON, not here.
func (b *Builder) Stmt(name string, spec *aff.Domain) *StmtBuilder {
	st := &Statement{
		Name:  name,
		Index: len(b.scop.Stmts),
		Spec:  spec,
	}
	b.scop.Stmts = append(b.scop.Stmts, st)
	return &StmtBuilder{b: b, stmt: st}
}

// Writes declares the statement's single write access.
func (sb *StmtBuilder) Writes(array string, idx ...aff.Expr) *StmtBuilder {
	if sb.b.err != nil {
		return sb
	}
	if sb.stmt.Write != nil {
		sb.b.err = invalidf(sb.b.scop.Name, "statement %q declares two writes", sb.stmt.Name)
		return sb
	}
	sb.stmt.Write = &AccessRef{Access: aff.NewAccess(array, idx...), owner: sb.stmt}
	return sb
}

// WritesOverwriting declares the statement's single write access and
// permits it to be non-injective (over-writes). Pipeline detection on
// such statements needs the relaxed last-writer extension
// (core.Options.AllowOverwrites).
func (sb *StmtBuilder) WritesOverwriting(array string, idx ...aff.Expr) *StmtBuilder {
	sb.Writes(array, idx...)
	if sb.b.err == nil && sb.stmt.Write != nil {
		sb.stmt.Write.MayOverwrite = true
	}
	return sb
}

// Reads declares one read access of the statement. Call it once per
// distinct read.
func (sb *StmtBuilder) Reads(array string, idx ...aff.Expr) *StmtBuilder {
	if sb.b.err != nil {
		return sb
	}
	sb.stmt.Reads = append(sb.stmt.Reads, AccessRef{Access: aff.NewAccess(array, idx...), owner: sb.stmt, slot: 1 + len(sb.stmt.Reads)})
	return sb
}

// Body attaches the executable body of the statement.
func (sb *StmtBuilder) Body(fn Body) *StmtBuilder {
	sb.stmt.Body = fn
	return sb
}

// Builder returns the parent builder, for fluent chaining across
// statements.
func (sb *StmtBuilder) Builder() *Builder { return sb.b }

// Build validates and returns the SCoP. It enumerates every domain and
// access relation and runs the full Validate, so a built SCoP is
// known to have non-empty domains and injective writes.
func (b *Builder) Build() (*SCoP, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.scop.Validate(); err != nil {
		return nil, err
	}
	return b.scop, nil
}

// buildLazy returns the SCoP after the structural checks only: nothing
// is enumerated, and the checks that need points (Validate) are left
// to the first consumer that asks, core.Detect among them.
func (b *Builder) buildLazy() (*SCoP, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.scop.ValidateShallow(); err != nil {
		return nil, err
	}
	return b.scop, nil
}

// MustBuild is Build for tests and examples with static inputs; it
// panics on error.
func (b *Builder) MustBuild() *SCoP {
	sc, err := b.Build()
	if err != nil {
		panic(err)
	}
	return sc
}
