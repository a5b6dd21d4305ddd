package scop

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"repro/internal/isl/aff"
)

// JSON interchange format for analysis-only SCoPs: a stable, explicit
// description of arrays, statements, symbolic domains, and affine
// accesses, so SCoPs can be exported from one tool and re-imported by
// another (or checked into tests as goldens). Executable bodies are
// not serialized; attach them afterwards (e.g. interp.Programify).

type jsonSCoP struct {
	Name   string      `json:"name"`
	Arrays []jsonArray `json:"arrays"`
	Stmts  []jsonStmt  `json:"statements"`
}

type jsonArray struct {
	Name string `json:"name"`
	Dim  int    `json:"dim"`
}

type jsonStmt struct {
	Name   string       `json:"name"`
	Bounds []jsonBound  `json:"bounds"`
	Write  *jsonAccess  `json:"write,omitempty"`
	Reads  []jsonAccess `json:"reads,omitempty"`
}

type jsonBound struct {
	Lo jsonExpr `json:"lo"`
	Hi jsonExpr `json:"hi"`
}

type jsonAccess struct {
	Array        string     `json:"array"`
	Index        []jsonExpr `json:"index"`
	MayOverwrite bool       `json:"mayOverwrite,omitempty"`
}

type jsonExpr struct {
	NVars  int       `json:"nvars"`
	Const  int       `json:"const,omitempty"`
	Coeffs []int     `json:"coeffs,omitempty"`
	Divs   []jsonDiv `json:"divs,omitempty"`
}

type jsonDiv struct {
	Coef  int      `json:"coef"`
	Inner jsonExpr `json:"inner"`
	Den   int      `json:"den"`
}

func exprToJSON(e aff.Expr) jsonExpr {
	je := jsonExpr{NVars: e.NVars, Const: e.Const, Coeffs: e.Coeffs}
	for _, d := range e.Divs {
		je.Divs = append(je.Divs, jsonDiv{Coef: d.Coef, Inner: exprToJSON(d.Inner), Den: d.Den})
	}
	return je
}

// exprFromJSON converts one expression, refusing shapes the
// evaluator cannot handle: a coefficient vector whose length is
// neither 0 nor NVars, a floor term with a denominator below 1, or a
// floor term over a different number of variables.
func exprFromJSON(je jsonExpr) (aff.Expr, error) {
	if len(je.Coeffs) != 0 && len(je.Coeffs) != je.NVars {
		return aff.Expr{}, fmt.Errorf("expression has %d coefficients for %d variables", len(je.Coeffs), je.NVars)
	}
	e := aff.Expr{NVars: je.NVars, Const: je.Const, Coeffs: je.Coeffs}
	for _, d := range je.Divs {
		if d.Den < 1 {
			return aff.Expr{}, fmt.Errorf("floor term has denominator %d, want >= 1", d.Den)
		}
		if d.Inner.NVars != je.NVars {
			return aff.Expr{}, fmt.Errorf("floor term over %d variables inside an expression over %d", d.Inner.NVars, je.NVars)
		}
		inner, err := exprFromJSON(d.Inner)
		if err != nil {
			return aff.Expr{}, err
		}
		e.Divs = append(e.Divs, aff.DivTerm{Coef: d.Coef, Inner: inner, Den: d.Den})
	}
	return e, nil
}

// ToJSON serializes the SCoP's polyhedral description.
func ToJSON(sc *SCoP) ([]byte, error) {
	doc, err := toDoc(sc)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(doc, "", "  ")
}

// toDoc builds the document form of sc's affine description.
func toDoc(sc *SCoP) (*jsonSCoP, error) {
	out := &jsonSCoP{Name: sc.Name}
	names := make([]string, 0, len(sc.Arrays))
	for name := range sc.Arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out.Arrays = append(out.Arrays, jsonArray{Name: name, Dim: sc.Arrays[name].Dim})
	}
	for _, s := range sc.Stmts {
		if s.Spec == nil {
			return nil, fmt.Errorf("scop: statement %q has no symbolic domain to serialize", s.Name)
		}
		if len(s.Spec.Constraints) != 0 {
			return nil, fmt.Errorf("scop: statement %q has extra domain constraints, not supported by the JSON format", s.Name)
		}
		js := jsonStmt{Name: s.Name}
		for _, b := range s.Spec.Bounds {
			js.Bounds = append(js.Bounds, jsonBound{Lo: exprToJSON(b.Lo), Hi: exprToJSON(b.Hi)})
		}
		if s.Write != nil {
			js.Write = &jsonAccess{
				Array:        s.Write.Array(),
				Index:        exprsToJSON(s.Write.Access.Exprs),
				MayOverwrite: s.Write.MayOverwrite,
			}
		}
		for i := range s.Reads {
			js.Reads = append(js.Reads, jsonAccess{
				Array: s.Reads[i].Array(),
				Index: exprsToJSON(s.Reads[i].Access.Exprs),
			})
		}
		out.Stmts = append(out.Stmts, js)
	}
	return out, nil
}

func exprsToJSON(es []aff.Expr) []jsonExpr {
	out := make([]jsonExpr, len(es))
	for i, e := range es {
		out[i] = exprToJSON(e)
	}
	return out
}

// DecodeError reports a document that does not describe a SCoP:
// malformed JSON, an envelope without its payload, or an expression of
// a shape the format forbids. SCoPs that decode but break an invariant
// fail with *ValidationError instead.
type DecodeError struct {
	Reason string
	Err    error // the underlying encoding/json error, if any
}

func (e *DecodeError) Error() string {
	if e.Err != nil {
		return "scop: " + e.Reason + ": " + e.Err.Error()
	}
	return "scop: " + e.Reason
}

func (e *DecodeError) Unwrap() error { return e.Err }

func decodef(format string, args ...any) error {
	return &DecodeError{Reason: fmt.Sprintf(format, args...)}
}

// FromJSON rebuilds an analysis-only SCoP from its JSON description.
// It accepts both the bare legacy document and the scop/v1 envelope
// (see ToJSONEnveloped); an envelope with an unrecognized schema fails
// with *SchemaError, a malformed document with *DecodeError and a
// structurally invalid SCoP with *ValidationError.
//
// Decoding is affine-only: the result carries the symbolic domains and
// accesses and passes ValidateShallow, but nothing is enumerated. The
// checks that need points — non-empty domains and injective writes —
// run with the first Validate (core.Detect calls it), and domains and
// relations are enumerated on first use.
func FromJSON(data []byte) (*SCoP, error) { return decode(data, false) }

// FromEnvelopeJSON is FromJSON for the wire: the document must carry a
// "schema" key, and a document without one fails with a *SchemaError
// whose Schema is empty. The envelope and its payload are parsed in a
// single pass.
func FromEnvelopeJSON(data []byte) (*SCoP, error) { return decode(data, true) }

// envelopeDoc is the typed scop/v1 envelope. Decoding into it reads the
// schema and the payload in one pass; the keys of a bare document are
// unknown to it and ignored.
type envelopeDoc struct {
	Schema *string   `json:"schema"`
	Scop   *jsonSCoP `json:"scop"`
}

func decode(data []byte, requireSchema bool) (*SCoP, error) {
	var env envelopeDoc
	err := json.Unmarshal(data, &env)
	if env.Schema == nil && requireSchema {
		// A syntax error, a top-level value that is not an object, or
		// a non-string schema is malformed JSON; any other document
		// without a schema is a legacy or foreign one.
		var te *json.UnmarshalTypeError
		if err != nil && (!errors.As(err, &te) || te.Field == "" || te.Field == "schema") {
			return nil, &DecodeError{Reason: "bad JSON", Err: err}
		}
		return nil, &SchemaError{}
	}
	if env.Schema == nil || *env.Schema == "" {
		// Bare legacy document: its keys sit at the top level.
		var in jsonSCoP
		if err := json.Unmarshal(data, &in); err != nil {
			return nil, &DecodeError{Reason: "bad JSON", Err: err}
		}
		return in.build()
	}
	if *env.Schema != SchemaV1 {
		return nil, &SchemaError{Schema: *env.Schema}
	}
	if err != nil {
		return nil, &DecodeError{Reason: "bad JSON", Err: err}
	}
	if env.Scop == nil {
		return nil, decodef("%s envelope has no \"scop\" payload", SchemaV1)
	}
	return env.Scop.build()
}

// build assembles the SCoP through the Builder and stops after the
// structural checks.
func (in *jsonSCoP) build() (*SCoP, error) {
	b := NewBuilder(in.Name)
	for _, arr := range in.Arrays {
		b.Array(arr.Name, arr.Dim)
	}
	for _, js := range in.Stmts {
		bounds := make([]aff.LoopBound, len(js.Bounds))
		for d, jb := range js.Bounds {
			if jb.Lo.NVars != d || jb.Hi.NVars != d {
				return nil, decodef("statement %q bound %d has arity lo=%d hi=%d, want %d",
					js.Name, d, jb.Lo.NVars, jb.Hi.NVars, d)
			}
			lo, err := exprFromJSON(jb.Lo)
			if err != nil {
				return nil, decodef("statement %q bound %d: %v", js.Name, d, err)
			}
			hi, err := exprFromJSON(jb.Hi)
			if err != nil {
				return nil, decodef("statement %q bound %d: %v", js.Name, d, err)
			}
			bounds[d] = aff.LoopBound{Lo: lo, Hi: hi}
		}
		sb := b.Stmt(js.Name, aff.NewDomain(js.Name, bounds...))
		if js.Write != nil {
			idx, err := exprsFromJSON(js.Write.Index)
			if err != nil {
				return nil, decodef("statement %q write to %q: %v", js.Name, js.Write.Array, err)
			}
			if js.Write.MayOverwrite {
				sb.WritesOverwriting(js.Write.Array, idx...)
			} else {
				sb.Writes(js.Write.Array, idx...)
			}
		}
		for _, rd := range js.Reads {
			idx, err := exprsFromJSON(rd.Index)
			if err != nil {
				return nil, decodef("statement %q read of %q: %v", js.Name, rd.Array, err)
			}
			sb.Reads(rd.Array, idx...)
		}
	}
	return b.buildLazy()
}

func exprsFromJSON(jes []jsonExpr) ([]aff.Expr, error) {
	out := make([]aff.Expr, len(jes))
	for i, je := range jes {
		e, err := exprFromJSON(je)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}
