package scop

import (
	"encoding/json"
	"fmt"
)

// The versioned wire envelope. The bare jsonSCoP document of ToJSON
// predates detection-as-a-service; once SCoPs travel between processes
// the format needs a version marker so either side can reject documents
// it does not understand instead of mis-parsing them. An enveloped SCoP
// is
//
//	{"schema": "scop/v1", "scop": { ...bare document... }}
//
// FromJSON accepts both shapes — bare legacy documents keep working for
// checked-in goldens and old tooling — while the HTTP API
// (internal/serve) decodes with FromEnvelopeJSON, which speaks only the
// enveloped form. See docs/API.md,
// "Wire format".

// SchemaV1 is the schema identifier of the version-1 SCoP envelope.
const SchemaV1 = "scop/v1"

// SchemaError reports an envelope whose schema identifier is not one
// this build understands. It is a typed error (not a string match) so
// servers can map it to a distinct wire status.
type SchemaError struct {
	// Schema is the unrecognized identifier found in the document; it
	// is empty when the document has no schema at all
	// (FromEnvelopeJSON).
	Schema string
}

func (e *SchemaError) Error() string {
	if e.Schema == "" {
		return fmt.Sprintf("scop: document has no schema; use the versioned envelope {%q: %q, %q: ...}", "schema", SchemaV1, "scop")
	}
	return fmt.Sprintf("scop: unsupported schema %q (want %q)", e.Schema, SchemaV1)
}

// ToJSONEnveloped serializes the SCoP's polyhedral description inside
// the scop/v1 envelope — the only form the HTTP API accepts.
func ToJSONEnveloped(sc *SCoP) ([]byte, error) {
	doc, err := toDoc(sc)
	if err != nil {
		return nil, err
	}
	schema := SchemaV1
	return json.MarshalIndent(envelopeDoc{Schema: &schema, Scop: doc}, "", "  ")
}
