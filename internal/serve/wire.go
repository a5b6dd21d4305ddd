package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/core"
	"repro/internal/scop"
	"repro/polypipe"
)

// The wire types of the scop/v1 HTTP API. Requests carry SCoPs in the
// versioned envelope ({"schema":"scop/v1","scop":{...}}, docs/API.md);
// responses summarize the detection result — the pipeline pairs, the
// per-statement block structure, and the content fingerprint the
// result is cached under.

// PairSummary names one detected pipeline pair.
type PairSummary struct {
	Src string `json:"src"`
	Dst string `json:"dst"`
}

// StmtSummary is the per-statement slice of a detection result.
type StmtSummary struct {
	Name         string `json:"name"`
	Blocks       int    `json:"blocks"`
	InDeps       int    `json:"in_deps"`
	ParallelDims []bool `json:"parallel_dims,omitempty"`
}

// DetectResponse is the 200 body of POST /v1/detect.
type DetectResponse struct {
	Schema      string        `json:"schema"`
	Fingerprint string        `json:"fingerprint"`
	Pairs       []PairSummary `json:"pairs"`
	Stmts       []StmtSummary `json:"stmts"`
	TotalBlocks int           `json:"total_blocks"`
}

// BatchRequest is the body of POST /v1/detect/batch: the envelope
// wraps the whole batch, each element is a bare SCoP document.
type BatchRequest struct {
	Schema string            `json:"schema"`
	Scops  []json.RawMessage `json:"scops"`
}

// BatchItemError locates one failed element of a batch.
type BatchItemError struct {
	Index   int    `json:"index"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// BatchResponse is the 200 body of POST /v1/detect/batch. Results is
// input-ordered with null at failed indexes; Errors lists the
// failures.
type BatchResponse struct {
	Schema  string            `json:"schema"`
	Results []*DetectResponse `json:"results"`
	Errors  []BatchItemError  `json:"errors,omitempty"`
}

// ErrorBody is every non-2xx response body.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries the machine code and human message of a
// failure. Codes are stable API surface (docs/API.md).
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Stable error codes.
const (
	CodeBadRequest     = "bad_request"     // malformed JSON or body
	CodeBadSchema      = "bad_schema"      // missing or unknown envelope schema
	CodeNotPipelinable = "not_pipelinable" // detection rejected the SCoP
	CodeUnknownBackend = "unknown_backend" // session built with a bad backend name
	CodeQuotaExhausted = "quota_exhausted" // tenant token bucket empty
	CodeOverloaded     = "overloaded"      // admission queue full, request shed
	CodeDraining       = "draining"        // server is shutting down
	CodeCanceled       = "canceled"        // request or session context ended the wait
	CodeClosed         = "session_closed"  // backing session was closed
	CodeInternal       = "internal"        // anything else
)

// classify maps a detection-path error to HTTP status + stable code.
// Client mistakes (bad wire documents, SCoPs the transformation
// rejects, bad backend names) are 4xx; lifecycle conditions (closed
// session, canceled wait, drain) are 503 so load balancers retry
// elsewhere.
func classify(err error) (status int, code string) {
	var se *scop.SchemaError
	var ve *scop.ValidationError
	switch {
	case errors.As(err, &se):
		return http.StatusBadRequest, CodeBadSchema
	case errors.As(err, &ve):
		// A malformed program (an empty domain, a non-injective
		// write, ...) is a bad request whether decoding caught it or
		// detection's Validate did; detection wraps the latter in
		// ErrNotPipelinable, so this case must come first.
		return http.StatusBadRequest, CodeBadRequest
	case errors.Is(err, polypipe.ErrNotPipelinable), errors.Is(err, core.ErrNotPipelinable):
		return http.StatusBadRequest, CodeNotPipelinable
	case errors.Is(err, polypipe.ErrUnknownBackend):
		return http.StatusBadRequest, CodeUnknownBackend
	case errors.Is(err, polypipe.ErrSessionClosed):
		return http.StatusServiceUnavailable, CodeClosed
	case errors.Is(err, polypipe.ErrDetectCanceled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, CodeCanceled
	default:
		return http.StatusBadRequest, CodeBadRequest
	}
}

// summarize flattens a detection result into its wire form.
func summarize(info *core.Info) *DetectResponse {
	resp := &DetectResponse{
		Schema:      scop.SchemaV1,
		Fingerprint: info.SCoP.Fingerprint().String(),
		Pairs:       []PairSummary{},
		Stmts:       []StmtSummary{},
		TotalBlocks: info.TotalBlocks(),
	}
	for _, p := range info.Pairs {
		resp.Pairs = append(resp.Pairs, PairSummary{Src: p.Src.Name, Dst: p.Dst.Name})
	}
	for _, si := range info.Stmts {
		s := StmtSummary{Name: si.Stmt.Name, Blocks: len(si.Blocks), InDeps: len(si.InDeps)}
		if info.Graph != nil {
			s.ParallelDims = info.Graph.ParallelDims(si.Stmt)
		}
		resp.Stmts = append(resp.Stmts, s)
	}
	return resp
}
