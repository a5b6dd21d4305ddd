package serve

import (
	"net/http"
	"testing"
)

// TestWireDecodeCodes pins the status codes of the single-pass wire
// decode on the shapes where a typed decode could disagree with a
// schema probe followed by a payload parse: non-object bodies, a
// non-string schema, a payload of the wrong type under a known and an
// unknown schema, and the empty schema string.
func TestWireDecodeCodes(t *testing.T) {
	_, ts, _ := newTestServer(t, Limits{})
	cases := []struct{ body, code string }{
		{`[]`, CodeBadRequest},
		{`null`, CodeBadSchema},
		{`5`, CodeBadRequest},
		{`{"schema":5,"scop":{}}`, CodeBadRequest},
		{`{"scop":5}`, CodeBadSchema},
		{`{"name":5}`, CodeBadSchema},
		{`{"schema":"scop/v9","scop":5}`, CodeBadSchema},
		{`{"schema":"scop/v1","scop":5}`, CodeBadRequest},
		{`{"schema":"scop/v1","scop":null}`, CodeBadRequest},
		{`{"schema":"","name":"x","arrays":[],"statements":[]}`, CodeBadRequest},
		{`{"schema":null,"scop":{}}`, CodeBadSchema},
	}
	for _, tc := range cases {
		resp, out := post(t, ts.URL+"/v1/detect", "", []byte(tc.body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d", tc.body, resp.StatusCode)
			continue
		}
		if code := errCode(t, out); code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.body, code, tc.code)
		}
	}
	for _, tc := range []struct{ body, code string }{
		{`[]`, CodeBadRequest},
		{`null`, CodeBadSchema},
		{`{"schema":5}`, CodeBadRequest},
		{`{"scops":5}`, CodeBadSchema},
		{`{"schema":"scop/v9","scops":5}`, CodeBadRequest},
		{`{"schema":"","scops":[{}]}`, CodeBadSchema},
		{`{"schema":"scop/v9","scops":[{}]}`, CodeBadSchema},
		{`{"schema":"scop/v1","scops":[]}`, CodeBadRequest},
	} {
		resp, out := post(t, ts.URL+"/v1/detect/batch", "", []byte(tc.body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("batch %s: status %d", tc.body, resp.StatusCode)
			continue
		}
		if code := errCode(t, out); code != tc.code {
			t.Errorf("batch %s: code %q, want %q", tc.body, code, tc.code)
		}
	}
}
