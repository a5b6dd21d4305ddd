package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"repro/internal/kernels"
	"repro/internal/scop"
)

// TestDeepValidationFailures: documents whose only fault needs
// enumerated points — a non-injective write, an empty domain — decode
// lazily and fail inside detection, yet keep the status and code they
// had when decoding enumerated eagerly (400 bad_request, not
// not_pipelinable), on the first post and on a repeat, and are never
// cached.
func TestDeepValidationFailures(t *testing.T) {
	_, ts, reg := newTestServer(t, Limits{})
	docs := map[string]string{
		"not injective": `{"schema":"scop/v1","scop":{"name":"x","arrays":[{"name":"A","dim":1}],"statements":[
			{"name":"S","bounds":[{"lo":{"nvars":0},"hi":{"nvars":0,"const":4}}],
			 "write":{"array":"A","index":[{"nvars":1}]}}]}}`,
		"empty domain": `{"schema":"scop/v1","scop":{"name":"x","arrays":[{"name":"A","dim":1}],"statements":[
			{"name":"S","bounds":[{"lo":{"nvars":0,"const":4},"hi":{"nvars":0,"const":4}}],
			 "write":{"array":"A","index":[{"nvars":1,"coeffs":[1]}]}}]}}`,
	}
	for name, doc := range docs {
		for attempt := 1; attempt <= 2; attempt++ {
			resp, out := post(t, ts.URL+"/v1/detect", "", []byte(doc))
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s, post %d: status %d: %v", name, attempt, resp.StatusCode, out)
			}
			if code := errCode(t, out); code != CodeBadRequest {
				t.Fatalf("%s, post %d: code %q, want %q", name, attempt, code, CodeBadRequest)
			}
		}
	}
	snap := reg.Snapshot()
	if got := snap.Gauge("cache.entries"); got != 0 {
		t.Fatalf("cache.entries = %d, want 0: a rejected SCoP was cached", got)
	}
	if got := snap.Counter("cache.hits"); got != 0 {
		t.Fatalf("cache.hits = %d, want 0", got)
	}
}

// TestConcurrentFirstPosts: two simultaneous first posts of one
// document (run under -race) both succeed with one fingerprint, one
// detecting and the other waiting on or hitting its result.
func TestConcurrentFirstPosts(t *testing.T) {
	_, ts, reg := newTestServer(t, Limits{})
	p, err := kernels.Table9Program("P7", 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := scop.ToJSONEnveloped(p.SCoP)
	if err != nil {
		t.Fatal(err)
	}
	const posts = 2
	fps := make([]string, posts)
	status := make([]int, posts)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < posts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v1/detect", "application/json", bytes.NewReader(doc))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			var out DetectResponse
			if json.NewDecoder(resp.Body).Decode(&out) == nil {
				fps[i] = out.Fingerprint
			}
			status[i] = resp.StatusCode
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < posts; i++ {
		if status[i] != http.StatusOK || fps[i] != p.SCoP.Fingerprint().String() {
			t.Fatalf("post %d: status %d fingerprint %q, want 200 %s", i, status[i], fps[i], p.SCoP.Fingerprint())
		}
	}
	if got := reg.Snapshot().Gauge("cache.entries"); got != 1 {
		t.Fatalf("cache.entries = %d, want 1", got)
	}
}

// TestRequestHistogramCoversWholeHandler: serve.request_ns and the
// tenant histogram observe every /v1/detect answer — refusals during
// decode and cache hits included — not only the detection call.
func TestRequestHistogramCoversWholeHandler(t *testing.T) {
	_, ts, reg := newTestServer(t, Limits{})
	body := envelopedKernel(t)
	post(t, ts.URL+"/v1/detect", "", body)                                     // miss
	post(t, ts.URL+"/v1/detect", "", body)                                     // hit
	post(t, ts.URL+"/v1/detect", "", []byte(`{"schema":"scop/v9","scop":{}}`)) // refused while decoding
	for _, name := range []string{"serve.request_ns", "serve.tenant.default.request_ns"} {
		if got := reg.Histogram(name, nil).Count(); got != 3 {
			t.Fatalf("%s counted %d requests, want 3", name, got)
		}
	}
}
