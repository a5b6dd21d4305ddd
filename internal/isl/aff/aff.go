// Package aff provides symbolic affine machinery for constructing the
// explicit integer sets and maps of package isl: affine expressions
// (with integer floor division, i.e. quasi-affine terms), constraints,
// rectangular-with-affine-bounds iteration domains in loop-nest form,
// and affine access relations.
//
// This is the construction half of the ISL substitute: iteration
// domains and memory access functions are described symbolically, then
// enumerated once into the exact extensional sets and maps that the
// pipeline-detection algorithms operate on.
package aff

import (
	"fmt"
	"strings"

	"repro/internal/isl"
)

// Expr is a quasi-affine expression over a fixed number of integer
// variables: Const + Σ Coeffs[i]·x_i + Σ Divs[j].Coef·⌊inner_j/den_j⌋.
type Expr struct {
	NVars  int
	Const  int
	Coeffs []int // len == NVars; may be nil meaning all zero
	Divs   []DivTerm
}

// DivTerm is one Coef·⌊Inner/Den⌋ term of a quasi-affine expression.
type DivTerm struct {
	Coef  int
	Inner Expr
	Den   int
}

// Const returns the constant expression c over nvars variables.
func Const(nvars, c int) Expr {
	return Expr{NVars: nvars, Const: c}
}

// Var returns the expression selecting variable i of nvars.
func Var(nvars, i int) Expr {
	if i < 0 || i >= nvars {
		panic(fmt.Sprintf("aff: Var index %d out of range [0,%d)", i, nvars))
	}
	cs := make([]int, nvars)
	cs[i] = 1
	return Expr{NVars: nvars, Coeffs: cs}
}

// Linear returns c + Σ coeffs[i]·x_i.
func Linear(c int, coeffs ...int) Expr {
	cs := make([]int, len(coeffs))
	copy(cs, coeffs)
	return Expr{NVars: len(coeffs), Const: c, Coeffs: cs}
}

func (e Expr) coeff(i int) int {
	if e.Coeffs == nil {
		return 0
	}
	return e.Coeffs[i]
}

// Coeff returns the coefficient of variable i; a nil Coeffs vector
// reads as all zeros.
func (e Expr) Coeff(i int) int { return e.coeff(i) }

func (e Expr) checkArity(f Expr, op string) {
	if e.NVars != f.NVars {
		panic(fmt.Sprintf("aff: %s arity mismatch: %d vs %d", op, e.NVars, f.NVars))
	}
}

// Add returns e + f.
func (e Expr) Add(f Expr) Expr {
	e.checkArity(f, "Add")
	cs := make([]int, e.NVars)
	for i := range cs {
		cs[i] = e.coeff(i) + f.coeff(i)
	}
	divs := make([]DivTerm, 0, len(e.Divs)+len(f.Divs))
	divs = append(divs, e.Divs...)
	divs = append(divs, f.Divs...)
	return Expr{NVars: e.NVars, Const: e.Const + f.Const, Coeffs: cs, Divs: divs}
}

// Sub returns e − f.
func (e Expr) Sub(f Expr) Expr { return e.Add(f.Scale(-1)) }

// Scale returns k·e.
func (e Expr) Scale(k int) Expr {
	cs := make([]int, e.NVars)
	for i := range cs {
		cs[i] = k * e.coeff(i)
	}
	divs := make([]DivTerm, len(e.Divs))
	for i, d := range e.Divs {
		divs[i] = DivTerm{Coef: k * d.Coef, Inner: d.Inner, Den: d.Den}
	}
	return Expr{NVars: e.NVars, Const: k * e.Const, Coeffs: cs, Divs: divs}
}

// AddConst returns e + c.
func (e Expr) AddConst(c int) Expr {
	e.Const += c
	return e
}

// FloorDiv returns ⌊e/den⌋ as a new expression. den must be positive.
func FloorDiv(e Expr, den int) Expr {
	if den <= 0 {
		panic("aff: FloorDiv by non-positive denominator")
	}
	return Expr{NVars: e.NVars, Divs: []DivTerm{{Coef: 1, Inner: e, Den: den}}}
}

// floorDiv implements mathematical floor division for possibly negative
// numerators.
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// Eval evaluates e at point x, which must have NVars coordinates.
func (e Expr) Eval(x isl.Vec) int {
	if len(x) != e.NVars {
		panic(fmt.Sprintf("aff: Eval point %v has %d coords, expr expects %d", x, len(x), e.NVars))
	}
	v := e.Const
	for i := 0; i < e.NVars; i++ {
		v += e.coeff(i) * x[i]
	}
	for _, d := range e.Divs {
		v += d.Coef * floorDiv(d.Inner.Eval(x), d.Den)
	}
	return v
}

// String renders the expression with variables named i0, i1, ...
func (e Expr) String() string {
	var parts []string
	if e.Const != 0 || (allZero(e.Coeffs) && len(e.Divs) == 0) {
		parts = append(parts, fmt.Sprintf("%d", e.Const))
	}
	for i := 0; i < e.NVars; i++ {
		c := e.coeff(i)
		switch {
		case c == 0:
		case c == 1:
			parts = append(parts, fmt.Sprintf("i%d", i))
		default:
			parts = append(parts, fmt.Sprintf("%d*i%d", c, i))
		}
	}
	for _, d := range e.Divs {
		if d.Coef == 1 {
			parts = append(parts, fmt.Sprintf("floor((%s)/%d)", d.Inner, d.Den))
		} else {
			parts = append(parts, fmt.Sprintf("%d*floor((%s)/%d)", d.Coef, d.Inner, d.Den))
		}
	}
	return strings.Join(parts, " + ")
}

func allZero(cs []int) bool {
	for _, c := range cs {
		if c != 0 {
			return false
		}
	}
	return true
}

// ConstraintKind distinguishes equalities from inequalities.
type ConstraintKind int

const (
	// GE is the constraint Expr ≥ 0.
	GE ConstraintKind = iota
	// EQ is the constraint Expr = 0.
	EQ
)

// Constraint is a quasi-affine constraint over a point.
type Constraint struct {
	E    Expr
	Kind ConstraintKind
}

// Satisfied reports whether x satisfies the constraint.
func (c Constraint) Satisfied(x isl.Vec) bool {
	v := c.E.Eval(x)
	if c.Kind == EQ {
		return v == 0
	}
	return v >= 0
}
