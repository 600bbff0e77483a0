// wire.go is the farm's request decode layer: one strict decoder whose
// run setup is tool.Options, checked by the same tool.Options.Resolve the
// CLI and tool.New call, so the worker's defaults and limits and the
// CLI's cannot drift apart, and every rejection carries a typed code
// (plus the offending field for bad_option) that clients can dispatch on.

package farm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"acstab/internal/report"
	"acstab/internal/tool"
)

// WireV2 is the wire-format version the worker speaks: one netlist, N
// variants, streamed NDJSON BatchItem results. BatchRequests must declare
// it explicitly, so a body written for the retired v1 (/run) wire fails
// loudly instead of mis-running.
const WireV2 = 2

// WireError is a request rejection produced during decode: the HTTP
// status to answer with plus the structured error detail for the body.
type WireError struct {
	Status int
	Detail ErrorDetail
}

// Error implements the error interface.
func (e *WireError) Error() string { return e.Detail.Message }

// wireErrorFrom wraps an options/format validation failure, extracting
// the field name from a *tool.FieldError.
func wireErrorFrom(err error) *WireError {
	we := &WireError{Status: http.StatusBadRequest,
		Detail: ErrorDetail{Code: CodeBadOption, Message: err.Error()}}
	if fe, ok := err.(*tool.FieldError); ok {
		we.Detail.Field = fe.Field
	}
	return we
}

// decodeStrict parses exactly one JSON document rejecting unknown fields,
// so schema drift (a misspelled option, a v3 field) surfaces as a 400
// instead of a silently ignored knob. Anything but whitespace after the
// document is rejected too: a body is one request, not a stream.
func decodeStrict(body []byte, into any) *WireError {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(into)
	if err == nil {
		if _, tail := dec.Token(); tail != io.EOF {
			err = fmt.Errorf("trailing data after the JSON document")
		}
	}
	if err != nil {
		return &WireError{Status: http.StatusBadRequest,
			Detail: ErrorDetail{Code: CodeBadJSON, Message: fmt.Sprintf("bad request JSON: %v", err)}}
	}
	return nil
}

// DecodeBatchRequest parses and validates a batch: strict JSON decode
// (the options over tool.DefaultOptions), explicit wire-version check
// (batches must say v=2), netlist size and variant count bounds, format
// check, and tool.Options.Resolve. It returns the request, whose Options
// are the resolved ones, together with those options, or a WireError
// carrying the HTTP status and structured error detail.
func DecodeBatchRequest(body []byte) (*BatchRequest, tool.Options, *WireError) {
	req := BatchRequest{Options: tool.DefaultOptions()}
	if we := decodeStrict(body, &req); we != nil {
		return nil, tool.Options{}, we
	}
	if req.V != WireV2 {
		return nil, tool.Options{}, &WireError{Status: http.StatusBadRequest,
			Detail: ErrorDetail{Code: CodeUnsupportedVersion,
				Message: fmt.Sprintf("batch requests require wire version %d (got %d)", WireV2, req.V)}}
	}
	if len(req.Netlist) > MaxNetlistBytes {
		return nil, tool.Options{}, &WireError{Status: http.StatusBadRequest,
			Detail: ErrorDetail{Code: CodeBadOption, Field: "netlist",
				Message: fmt.Sprintf("netlist larger than %d bytes", MaxNetlistBytes)}}
	}
	if len(req.Variants) == 0 {
		return nil, tool.Options{}, &WireError{Status: http.StatusBadRequest,
			Detail: ErrorDetail{Code: CodeBadOption, Field: "variants",
				Message: "batch carries no variants"}}
	}
	if len(req.Variants) > MaxBatchVariants {
		return nil, tool.Options{}, &WireError{Status: http.StatusBadRequest,
			Detail: ErrorDetail{Code: CodeBadOption, Field: "variants",
				Message: fmt.Sprintf("batch of %d variants exceeds the %d-variant limit", len(req.Variants), MaxBatchVariants)}}
	}
	if err := report.CheckFormat(req.Format); err != nil {
		return nil, tool.Options{}, wireErrorFrom(err)
	}
	// The request keeps the resolved options, so it re-encodes to a body
	// that decodes to the same request.
	var err error
	if req.Options, err = req.Options.Resolve(); err != nil {
		return nil, tool.Options{}, wireErrorFrom(err)
	}
	return &req, req.Options, nil
}
