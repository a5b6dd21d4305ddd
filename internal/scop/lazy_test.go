package scop_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/scop"
)

// corpus returns the eagerly built SCoPs the lazy path is checked
// against: Table 9 P1–P10 and the 3-deep nmm and gmm matrix chains,
// each at two sizes.
func corpus(t testing.TB) map[string]*scop.SCoP {
	t.Helper()
	out := map[string]*scop.SCoP{}
	for _, n := range []int{8, 13} {
		for _, spec := range kernels.Table9 {
			p, err := kernels.Table9Program(spec.Name, n, 2)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("%s/n=%d", spec.Name, n)] = p.SCoP
		}
		out[fmt.Sprintf("3nmm/n=%d", n)] = kernels.MMChain(3, n, kernels.MM).SCoP
		out[fmt.Sprintf("3gmm/n=%d", n)] = kernels.MMChain(3, n, kernels.GMM).SCoP
	}
	return out
}

func materializedCount(sc *scop.SCoP) int {
	n := 0
	for _, s := range sc.Stmts {
		if scop.Materialized(s) {
			n++
		}
	}
	return n
}

// sameEnumeration fails unless every domain and access relation of got
// equals want's.
func sameEnumeration(t *testing.T, name string, got, want *scop.SCoP) {
	t.Helper()
	if len(got.Stmts) != len(want.Stmts) {
		t.Fatalf("%s: %d statements, want %d", name, len(got.Stmts), len(want.Stmts))
	}
	for i, w := range want.Stmts {
		g := got.Stmts[i]
		if !g.Domain().Equal(w.Domain()) {
			t.Fatalf("%s: statement %s domain differs", name, w.Name)
		}
		if (g.Write == nil) != (w.Write == nil) {
			t.Fatalf("%s: statement %s write presence differs", name, w.Name)
		}
		if w.Write != nil && !g.Write.Rel().Equal(w.Write.Rel()) {
			t.Fatalf("%s: statement %s write relation differs", name, w.Name)
		}
		if len(g.Reads) != len(w.Reads) {
			t.Fatalf("%s: statement %s has %d reads, want %d", name, w.Name, len(g.Reads), len(w.Reads))
		}
		for k := range w.Reads {
			if !g.Reads[k].Rel().Equal(w.Reads[k].Rel()) {
				t.Fatalf("%s: statement %s read %d differs", name, w.Name, k)
			}
		}
	}
}

// TestLazyDecodeMatchesBuild: a decoded SCoP fingerprints like the
// built one it was encoded from without enumerating anything, and its
// lazily enumerated domains and relations equal Build's.
func TestLazyDecodeMatchesBuild(t *testing.T) {
	for name, sc := range corpus(t) {
		data, err := scop.ToJSON(sc)
		if err != nil {
			t.Fatal(err)
		}
		back, err := scop.FromJSON(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := materializedCount(back); n != 0 {
			t.Fatalf("%s: FromJSON enumerated %d statements", name, n)
		}
		if back.Fingerprint() != sc.Fingerprint() {
			t.Fatalf("%s: round trip moved the fingerprint", name)
		}
		if n := materializedCount(back); n != 0 {
			t.Fatalf("%s: Fingerprint enumerated %d statements", name, n)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("%s: Validate: %v", name, err)
		}
		sameEnumeration(t, name, back, sc)
	}
}

// raiseBounds rewrites every constant upper loop bound of a wire
// document to hi.
func raiseBounds(t *testing.T, doc []byte, hi int) []byte {
	t.Helper()
	var env map[string]any
	if err := json.Unmarshal(doc, &env); err != nil {
		t.Fatal(err)
	}
	for _, st := range env["scop"].(map[string]any)["statements"].([]any) {
		for _, b := range st.(map[string]any)["bounds"].([]any) {
			b.(map[string]any)["hi"].(map[string]any)["const"] = hi
		}
	}
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestHugeBoundsDecodeWithoutEnumerating: P1 with its bounds raised to
// 30000 (9·10^8 points per statement) decodes and fingerprints from
// the affine description alone.
func TestHugeBoundsDecodeWithoutEnumerating(t *testing.T) {
	p, err := kernels.Table9Program("P1", 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := scop.ToJSONEnveloped(p.SCoP)
	if err != nil {
		t.Fatal(err)
	}
	doc = raiseBounds(t, doc, 30000)
	start := time.Now()
	sc, err := scop.FromEnvelopeJSON(doc)
	if err != nil {
		t.Fatal(err)
	}
	fp := sc.Fingerprint()
	elapsed := time.Since(start)
	if n := materializedCount(sc); n != 0 {
		t.Fatalf("decode and fingerprint enumerated %d statements", n)
	}
	if fp == p.SCoP.Fingerprint() {
		t.Fatal("raised bounds did not move the fingerprint")
	}
	if elapsed > 10*time.Millisecond {
		t.Fatalf("decode and fingerprint took %v, want under 10ms", elapsed)
	}
}

// TestDeepChecksDeferredToValidate: a document whose only fault needs
// enumerated points decodes, and Validate reports the fault as a typed
// *ValidationError with Build's message.
func TestDeepChecksDeferredToValidate(t *testing.T) {
	cases := map[string]string{
		"not injective": `{"name":"x","arrays":[{"name":"A","dim":1}],"statements":[{"name":"S","bounds":[{"lo":{"nvars":0},"hi":{"nvars":0,"const":4}}],"write":{"array":"A","index":[{"nvars":1}]}}]}`,
		"empty domain":  `{"name":"x","arrays":[{"name":"A","dim":1}],"statements":[{"name":"S","bounds":[{"lo":{"nvars":0,"const":4},"hi":{"nvars":0,"const":4}}],"write":{"array":"A","index":[{"nvars":1,"coeffs":[1]}]}}]}`,
	}
	for name, doc := range cases {
		sc, err := scop.FromJSON([]byte(doc))
		if err != nil {
			t.Fatalf("%s: FromJSON: %v", name, err)
		}
		err = sc.Validate()
		var ve *scop.ValidationError
		if !errors.As(err, &ve) {
			t.Fatalf("%s: Validate = %v, want *ValidationError", name, err)
		}
		_, buildErr := rebuildEager(sc)
		if buildErr == nil || buildErr.Error() != err.Error() {
			t.Fatalf("%s: Validate says %v, Build says %v", name, err, buildErr)
		}
	}
}

// TestConcurrentMaterialize: concurrent first readers of one decoded
// SCoP (run under -race) see one enumeration and one fingerprint.
func TestConcurrentMaterialize(t *testing.T) {
	p, err := kernels.Table9Program("P4", 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := scop.ToJSON(p.SCoP)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scop.FromJSON(doc)
	if err != nil {
		t.Fatal(err)
	}
	const readers = 8
	var wg sync.WaitGroup
	fps := make([]scop.Fingerprint, readers)
	errs := make([]error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fps[r] = sc.Fingerprint()
			errs[r] = sc.Validate()
			for _, s := range sc.Stmts {
				s.Domain().Card()
				s.Write.Rel().Card()
			}
		}(r)
	}
	wg.Wait()
	for r := 0; r < readers; r++ {
		if errs[r] != nil || fps[r] != p.SCoP.Fingerprint() {
			t.Fatalf("reader %d: fingerprint %v err %v", r, fps[r], errs[r])
		}
	}
	sameEnumeration(t, "P4", sc, p.SCoP)
}

// rebuildEager builds sc's affine description again through
// Builder.Build, which enumerates eagerly.
func rebuildEager(sc *scop.SCoP) (*scop.SCoP, error) {
	b := scop.NewBuilder(sc.Name)
	names := make([]string, 0, len(sc.Arrays))
	for name := range sc.Arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b.Array(name, sc.Arrays[name].Dim)
	}
	for _, s := range sc.Stmts {
		sb := b.Stmt(s.Name, s.Spec)
		if w := s.Write; w != nil {
			if w.MayOverwrite {
				sb.WritesOverwriting(w.Array(), w.Access.Exprs...)
			} else {
				sb.Writes(w.Array(), w.Access.Exprs...)
			}
		}
		for _, rd := range s.Reads {
			sb.Reads(rd.Array(), rd.Access.Exprs...)
		}
	}
	return b.Build()
}

// smallVolume reports whether every statement's domain is a rectangle
// of at most limit points, so enumerating it is cheap.
func smallVolume(sc *scop.SCoP, limit int) bool {
	for _, s := range sc.Stmts {
		lo, hi, ok := s.Spec.RectBounds()
		if !ok {
			return false
		}
		vol := 1
		for d := range lo {
			ext := hi[d] - lo[d] // RectBounds guarantees hi > lo, so ext <= 0 is overflow
			if ext <= 0 || ext > limit || vol*ext > limit {
				return false
			}
			vol *= ext
		}
	}
	return true
}

// FuzzFromJSON: decoding never panics, rejects with a typed error, and
// — for accepted documents small enough to enumerate — materializes
// exactly what an eager Build of the same description does, with the
// same validation verdict. The seed corpus (Table 9, the matrix
// chains, the DSL examples, both wire shapes) runs with go test.
func FuzzFromJSON(f *testing.F) {
	for _, sc := range corpus(f) {
		doc, err := scop.ToJSON(sc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "dsl", "*.loop"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no DSL examples: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		sc, err := lang.Parse(filepath.Base(file), string(src))
		if err != nil {
			f.Fatal(err)
		}
		doc, err := scop.ToJSONEnveloped(sc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Add([]byte(`{"schema":"scop/v9","scop":{}}`))
	f.Add([]byte(`{"schema":"scop/v1","scop":{"name":"x","arrays":[{"name":"A","dim":1}],"statements":[{"name":"S","bounds":[{"lo":{"nvars":0},"hi":{"nvars":0,"const":6}}],"write":{"array":"A","index":[{"nvars":1,"divs":[{"coef":1,"inner":{"nvars":1,"coeffs":[1]},"den":2}]}]}}]}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := scop.FromJSON(data)
		if err != nil {
			var se *scop.SchemaError
			var de *scop.DecodeError
			var ve *scop.ValidationError
			if !errors.As(err, &se) && !errors.As(err, &de) && !errors.As(err, &ve) {
				t.Fatalf("untyped rejection %T: %v", err, err)
			}
			return
		}
		sc.Fingerprint()
		if materializedCount(sc) != 0 {
			t.Fatal("decode or fingerprint enumerated")
		}
		if !smallVolume(sc, 4096) {
			return
		}
		lazyErr := sc.Validate()
		eager, buildErr := rebuildEager(sc)
		if (lazyErr == nil) != (buildErr == nil) || (lazyErr != nil && lazyErr.Error() != buildErr.Error()) {
			t.Fatalf("lazy Validate %v, eager Build %v", lazyErr, buildErr)
		}
		if buildErr != nil {
			return
		}
		sameEnumeration(t, "fuzz", sc, eager)
		if eager.Fingerprint() != sc.Fingerprint() {
			t.Fatal("eager and lazy fingerprints differ")
		}
	})
}
