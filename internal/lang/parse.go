package lang

import (
	"fmt"
	"strconv"

	"repro/internal/isl"
	"repro/internal/isl/aff"
	"repro/internal/scop"
)

// access is a parsed array access.
type access struct {
	array string
	idx   []aff.Expr
}

// stmtDecl is a parsed statement.
type stmtDecl struct {
	name  string
	spec  *aff.Domain
	write access
	reads []access
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	pos  int
	// loop variable names currently in scope, outermost first
	vars []string
	// params holds `param NAME = value;` compile-time constants
	params map[string]int
	// arrays holds `array NAME[e0][e1];` declared extents, used for
	// bounds checking; undeclared arrays are not checked
	arrays map[string][]int
	// preBound marks params supplied by the caller (ParseWithParams);
	// source-level `param` declarations of the same name are defaults
	// and do not override them
	preBound map[string]bool
	// parsed statements in program order
	stmts []stmtDecl
}

// Parse parses a DSL program into an analysis-only SCoP (statement
// bodies are nil; attach them afterwards if execution is needed).
// Top-level `param NAME = <const expr>;` declarations define
// compile-time constants usable in bounds and subscripts, e.g.
//
//	param N = 20;
//	for (i = 0; i < N - 1; i++) ...
func Parse(name, src string) (*scop.SCoP, error) {
	toks, err := newLexer(src).tokens()
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, params: make(map[string]int), arrays: make(map[string][]int)}
	for p.peek().kind != tokEOF {
		switch p.peek().text {
		case "param":
			if err := p.parseParam(); err != nil {
				return nil, err
			}
		case "array":
			if err := p.parseArrayDecl(); err != nil {
				return nil, err
			}
		default:
			if err := p.parseNest(nil); err != nil {
				return nil, err
			}
		}
	}
	if len(p.stmts) == 0 {
		return nil, fmt.Errorf("lang: program %q contains no loop nests", name)
	}
	return p.buildScop(name)
}

// ParseWithParams parses src with the given parameter bindings
// pre-declared, so one program text can be instantiated at several
// sizes:
//
//	sc, err := lang.ParseWithParams("p", src, map[string]int{"N": 64})
//
// Bindings shadow `param` declarations of the same name in the source
// (the source value acts as a default).
func ParseWithParams(name, src string, params map[string]int) (*scop.SCoP, error) {
	toks, err := newLexer(src).tokens()
	if err != nil {
		return nil, err
	}
	p := &parser{
		toks:     toks,
		params:   make(map[string]int, len(params)),
		arrays:   make(map[string][]int),
		preBound: make(map[string]bool, len(params)),
	}
	for k, v := range params {
		p.params[k] = v
		p.preBound[k] = true
	}
	for p.peek().kind != tokEOF {
		switch p.peek().text {
		case "param":
			if err := p.parseParam(); err != nil {
				return nil, err
			}
		case "array":
			if err := p.parseArrayDecl(); err != nil {
				return nil, err
			}
		default:
			if err := p.parseNest(nil); err != nil {
				return nil, err
			}
		}
	}
	if len(p.stmts) == 0 {
		return nil, fmt.Errorf("lang: program %q contains no loop nests", name)
	}
	return p.buildScop(name)
}

// parseParam parses `param NAME = <const expr>;`.
func (p *parser) parseParam() error {
	if _, err := p.expect("param"); err != nil {
		return err
	}
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if name.text == "param" || name.text == "for" || name.text == "array" {
		return p.errf(name, "reserved word %q cannot name a param", name.text)
	}
	if _, dup := p.params[name.text]; dup && !p.preBound[name.text] {
		return p.errf(name, "param %q declared twice", name.text)
	}
	if _, err := p.expect("="); err != nil {
		return err
	}
	e, err := p.parseSum(0)
	if err != nil {
		return err
	}
	c := e.Eval(nil) // arity-0 expressions are compile-time constants
	if _, err := p.expect(";"); err != nil {
		return err
	}
	if p.preBound[name.text] {
		// Caller-supplied binding wins; the source value is a default.
		p.preBound[name.text] = false
		return nil
	}
	p.params[name.text] = c
	return nil
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(t token, format string, args ...any) error {
	return fmt.Errorf("lang: %d:%d: %s", t.line, t.col, fmt.Sprintf(format, args...))
}

func (p *parser) expect(text string) (token, error) {
	t := p.next()
	if t.kind == tokEOF || t.text != text {
		return t, p.errf(t, "expected %q, found %s", text, t)
	}
	return t, nil
}

func (p *parser) expectIdent() (token, error) {
	t := p.next()
	if t.kind != tokIdent {
		return t, p.errf(t, "expected identifier, found %s", t)
	}
	return t, nil
}

// parseArrayDecl parses `array NAME[e0][e1]...;` where extents are
// constant expressions. Declared arrays get bounds-checked accesses.
func (p *parser) parseArrayDecl() error {
	if _, err := p.expect("array"); err != nil {
		return err
	}
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if _, dup := p.arrays[name.text]; dup {
		return p.errf(name, "array %q declared twice", name.text)
	}
	var extents []int
	for p.peek().text == "[" {
		p.next()
		e, err := p.parseSum(0)
		if err != nil {
			return err
		}
		ext := e.Eval(nil)
		if ext <= 0 {
			return p.errf(name, "array %q has non-positive extent %d", name.text, ext)
		}
		if _, err := p.expect("]"); err != nil {
			return err
		}
		extents = append(extents, ext)
	}
	if len(extents) == 0 {
		return p.errf(name, "array %q declared without extents", name.text)
	}
	if _, err := p.expect(";"); err != nil {
		return err
	}
	p.arrays[name.text] = extents
	return nil
}

// parseNest parses one for loop (possibly containing nested loops and
// finally a statement), accumulating bounds.
func (p *parser) parseNest(bounds []aff.LoopBound) error {
	if _, err := p.expect("for"); err != nil {
		return err
	}
	if _, err := p.expect("("); err != nil {
		return err
	}
	v, err := p.expectIdent()
	if err != nil {
		return err
	}
	for _, existing := range p.vars {
		if existing == v.text {
			return p.errf(v, "loop variable %q shadows an enclosing loop", v.text)
		}
	}
	if _, err := p.expect("="); err != nil {
		return err
	}
	lo, err := p.parseExpr()
	if err != nil {
		return err
	}
	if _, err := p.expect(";"); err != nil {
		return err
	}
	cond, err := p.expectIdent()
	if err != nil {
		return err
	}
	if cond.text != v.text {
		return p.errf(cond, "loop condition tests %q, expected %q", cond.text, v.text)
	}
	if _, err := p.expect("<"); err != nil {
		return err
	}
	// The upper bound may not reference the loop's own variable.
	hi, err := p.parseExpr()
	if err != nil {
		return err
	}
	if _, err := p.expect(";"); err != nil {
		return err
	}
	inc, err := p.expectIdent()
	if err != nil {
		return err
	}
	if inc.text != v.text {
		return p.errf(inc, "loop increment updates %q, expected %q", inc.text, v.text)
	}
	if _, err := p.expect("++"); err != nil {
		return err
	}
	if _, err := p.expect(")"); err != nil {
		return err
	}

	p.vars = append(p.vars, v.text)
	bounds = append(bounds, aff.LoopBound{Lo: lo, Hi: hi})

	braced := false
	if p.peek().text == "{" {
		p.next()
		braced = true
	}
	if p.peek().text == "for" {
		if err := p.parseNest(bounds); err != nil {
			return err
		}
	} else {
		if err := p.parseStmt(bounds); err != nil {
			return err
		}
	}
	if braced {
		if _, err := p.expect("}"); err != nil {
			return err
		}
	}
	p.vars = p.vars[:len(p.vars)-1]
	return nil
}

// parseStmt parses `Name: A[..][..] = f(acc, acc, ...);`.
func (p *parser) parseStmt(bounds []aff.LoopBound) error {
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if _, err := p.expect(":"); err != nil {
		return err
	}
	write, err := p.parseAccess()
	if err != nil {
		return err
	}
	if _, err := p.expect("="); err != nil {
		return err
	}
	if _, err := p.expectIdent(); err != nil { // opaque function name
		return err
	}
	if _, err := p.expect("("); err != nil {
		return err
	}
	var reads []access
	for {
		rd, err := p.parseAccess()
		if err != nil {
			return err
		}
		reads = append(reads, rd)
		if p.peek().text != "," {
			break
		}
		p.next()
	}
	if _, err := p.expect(")"); err != nil {
		return err
	}
	if _, err := p.expect(";"); err != nil {
		return err
	}
	for _, s := range p.stmts {
		if s.name == name.text {
			return p.errf(name, "duplicate statement name %q", name.text)
		}
	}
	// Re-root the bound expressions onto this statement's own domain
	// arity (bound d uses variables 0..d-1).
	spec := aff.NewDomain(name.text, bounds...)
	p.stmts = append(p.stmts, stmtDecl{
		name:  name.text,
		spec:  spec,
		write: write,
		reads: reads,
	})
	return nil
}

// parseAccess parses `Array[e]…[e]`.
func (p *parser) parseAccess() (access, error) {
	arr, err := p.expectIdent()
	if err != nil {
		return access{}, err
	}
	var idx []aff.Expr
	for p.peek().text == "[" {
		p.next()
		e, err := p.parseExprFull()
		if err != nil {
			return access{}, err
		}
		if _, err := p.expect("]"); err != nil {
			return access{}, err
		}
		idx = append(idx, e)
	}
	if len(idx) == 0 {
		return access{}, p.errf(arr, "access to %q has no subscripts", arr.text)
	}
	return access{array: arr.text, idx: idx}, nil
}

// parseExpr parses an affine expression over the loop variables in
// scope *before* the innermost being declared (used for bounds, whose
// arity is the current depth).
func (p *parser) parseExpr() (aff.Expr, error) {
	return p.parseSum(len(p.vars))
}

// parseExprFull parses an expression over all loop variables in scope
// (used for access subscripts).
func (p *parser) parseExprFull() (aff.Expr, error) {
	return p.parseSum(len(p.vars))
}

func (p *parser) parseSum(arity int) (aff.Expr, error) {
	e, err := p.parseTerm(arity)
	if err != nil {
		return aff.Expr{}, err
	}
	for {
		switch p.peek().text {
		case "+":
			p.next()
			rhs, err := p.parseTerm(arity)
			if err != nil {
				return aff.Expr{}, err
			}
			e = e.Add(rhs)
		case "-":
			p.next()
			rhs, err := p.parseTerm(arity)
			if err != nil {
				return aff.Expr{}, err
			}
			e = e.Sub(rhs)
		default:
			return e, nil
		}
	}
}

// parseTerm handles multiplication and division by constants.
func (p *parser) parseTerm(arity int) (aff.Expr, error) {
	e, err := p.parseFactor(arity)
	if err != nil {
		return aff.Expr{}, err
	}
	for {
		switch p.peek().text {
		case "*":
			op := p.next()
			rhs, err := p.parseFactor(arity)
			if err != nil {
				return aff.Expr{}, err
			}
			// One side must be constant for the product to stay affine.
			if c, ok := constOf(rhs); ok {
				e = e.Scale(c)
			} else if c, ok := constOf(e); ok {
				e = rhs.Scale(c)
			} else {
				return aff.Expr{}, p.errf(op, "non-affine product of two variables")
			}
		case "/":
			op := p.next()
			rhs, err := p.parseFactor(arity)
			if err != nil {
				return aff.Expr{}, err
			}
			c, ok := constOf(rhs)
			if !ok || c <= 0 {
				return aff.Expr{}, p.errf(op, "division requires a positive constant divisor")
			}
			e = aff.FloorDiv(e, c)
		default:
			return e, nil
		}
	}
}

func (p *parser) parseFactor(arity int) (aff.Expr, error) {
	t := p.next()
	switch {
	case t.text == "(":
		e, err := p.parseSum(arity)
		if err != nil {
			return aff.Expr{}, err
		}
		if _, err := p.expect(")"); err != nil {
			return aff.Expr{}, err
		}
		return e, nil
	case t.text == "-":
		e, err := p.parseFactor(arity)
		if err != nil {
			return aff.Expr{}, err
		}
		return e.Scale(-1), nil
	case t.kind == tokNumber:
		n, err := strconv.Atoi(t.text)
		if err != nil {
			return aff.Expr{}, p.errf(t, "bad number %q", t.text)
		}
		return aff.Const(arity, n), nil
	case t.kind == tokIdent:
		for d, name := range p.vars {
			if name == t.text && d < arity {
				return aff.Var(arity, d), nil
			}
		}
		if c, ok := p.params[t.text]; ok {
			return aff.Const(arity, c), nil
		}
		return aff.Expr{}, p.errf(t, "unknown variable %q (loop variables in scope: %v)", t.text, p.vars[:min(arity, len(p.vars))])
	default:
		return aff.Expr{}, p.errf(t, "expected expression, found %s", t)
	}
}

// constOf reports whether e is a constant expression and its value.
func constOf(e aff.Expr) (int, bool) {
	if len(e.Divs) != 0 {
		return 0, false
	}
	for _, c := range e.Coeffs {
		if c != 0 {
			return 0, false
		}
	}
	return e.Const, true
}

// buildScop assembles the SCoP, inferring array declarations from the
// accesses.
func (p *parser) buildScop(name string) (*scop.SCoP, error) {
	b := scop.NewBuilder(name)
	dims := map[string]int{}
	for _, s := range p.stmts {
		accs := append([]access{s.write}, s.reads...)
		for _, a := range accs {
			if prev, ok := dims[a.array]; ok {
				if prev != len(a.idx) {
					return nil, fmt.Errorf("lang: array %q used with both %d and %d subscripts", a.array, prev, len(a.idx))
				}
			} else {
				dims[a.array] = len(a.idx)
				b.Array(a.array, len(a.idx))
			}
		}
	}
	for name, dim := range dims {
		if ext, declared := p.arrays[name]; declared && len(ext) != dim {
			return nil, fmt.Errorf("lang: array %q declared with %d dimensions but used with %d subscripts",
				name, len(ext), dim)
		}
	}
	for _, s := range p.stmts {
		sb := b.Stmt(s.name, s.spec).Writes(s.write.array, s.write.idx...)
		for _, rd := range s.reads {
			sb.Reads(rd.array, rd.idx...)
		}
	}
	sc, err := b.Build()
	if err != nil {
		return nil, err
	}
	if err := p.checkBounds(sc); err != nil {
		return nil, err
	}
	return sc, nil
}

// checkBounds verifies that every access to a declared array stays
// within its declared extents.
func (p *parser) checkBounds(sc *scop.SCoP) error {
	for _, s := range sc.Stmts {
		accs := make([]*scop.AccessRef, 0, len(s.Reads)+1)
		if s.Write != nil {
			accs = append(accs, s.Write)
		}
		for i := range s.Reads {
			accs = append(accs, &s.Reads[i])
		}
		for _, a := range accs {
			ext, declared := p.arrays[a.Array()]
			if !declared {
				continue
			}
			var bad error
			a.Rel().Range().Foreach(func(idx isl.Vec) bool {
				for d, x := range idx {
					if x < 0 || x >= ext[d] {
						bad = fmt.Errorf("lang: statement %q accesses %s%v outside the declared extents %v",
							s.Name, a.Array(), idx, ext)
						return false
					}
				}
				return true
			})
			if bad != nil {
				return bad
			}
		}
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
