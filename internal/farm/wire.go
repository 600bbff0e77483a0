// wire.go is the farm's request decode layer: one strict decoder and
// one RequestOptions.Normalize, so the worker's defaults and the CLI's
// cannot drift apart, and every rejection carries a typed code (plus the
// offending field for bad_option) that clients can dispatch on.

package farm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"acstab/internal/tool"
)

// WireV2 is the wire-format version the worker speaks: one netlist, N
// variants, streamed NDJSON BatchItem results. BatchRequests must declare
// it explicitly, so a body written for the retired v1 (/run) wire fails
// loudly instead of mis-running.
const WireV2 = 2

// FieldError is a request-option rejection tied to one wire field. The
// worker maps it to {"error":{code:"bad_option",field:...}} so a client
// can point at the exact knob instead of re-reading a prose message.
type FieldError struct {
	// Field is the JSON field name as it appears on the wire.
	Field string
	// Reason says what is wrong with the value.
	Reason string
}

// Error implements the error interface.
func (e *FieldError) Error() string {
	return fmt.Sprintf("option %s: %s", e.Field, e.Reason)
}

// Normalize maps the wire options to tool.Options: zero values take the
// documented server defaults, set values are validated, and any rejection
// comes back as a *FieldError naming the offending wire field. This is
// the single defaulting path — the worker and the CLI agree because they
// both call it.
func (o RequestOptions) Normalize() (tool.Options, error) {
	opts := tool.DefaultOptions()
	if o.FStartHz < 0 {
		return opts, &FieldError{Field: "fstart_hz", Reason: "must be >= 0 (0 = server default)"}
	}
	if o.FStartHz > 0 {
		opts.FStart = o.FStartHz
	}
	if o.FStopHz < 0 {
		return opts, &FieldError{Field: "fstop_hz", Reason: "must be >= 0 (0 = server default)"}
	}
	if o.FStopHz > 0 {
		opts.FStop = o.FStopHz
	}
	if opts.FStop <= opts.FStart {
		return opts, &FieldError{Field: "fstop_hz",
			Reason: fmt.Sprintf("sweep stop %g Hz not above start %g Hz", opts.FStop, opts.FStart)}
	}
	if o.PointsPerDecade < 0 {
		return opts, &FieldError{Field: "points_per_decade", Reason: "must be >= 0 (0 = server default)"}
	}
	if o.PointsPerDecade > tool.MaxPointsPerDecade {
		return opts, &FieldError{Field: "points_per_decade",
			Reason: fmt.Sprintf("must be <= %d", tool.MaxPointsPerDecade)}
	}
	if o.PointsPerDecade > 0 {
		opts.PointsPerDecade = o.PointsPerDecade
	}
	if o.CoarsePointsPerDecade < 0 {
		return opts, &FieldError{Field: "coarse_points_per_decade", Reason: "must be >= 0 (0 = adaptive off)"}
	}
	if o.CoarsePointsPerDecade > 0 {
		opts.CoarsePointsPerDecade = o.CoarsePointsPerDecade
	}
	if o.RefinePointsPerDecade < 0 {
		return opts, &FieldError{Field: "refine_points_per_decade", Reason: "must be >= 0 (0 = server default)"}
	}
	if o.RefinePointsPerDecade > 0 {
		if o.CoarsePointsPerDecade <= 0 {
			return opts, &FieldError{Field: "refine_points_per_decade",
				Reason: "requires coarse_points_per_decade > 0 (adaptive sweeps only)"}
		}
		opts.RefinePointsPerDecade = o.RefinePointsPerDecade
	}
	if o.RefineThreshold < 0 {
		return opts, &FieldError{Field: "refine_threshold", Reason: "must be >= 0 (0 = server default)"}
	}
	if o.RefineThreshold > 0 {
		if o.CoarsePointsPerDecade <= 0 {
			return opts, &FieldError{Field: "refine_threshold",
				Reason: "requires coarse_points_per_decade > 0 (adaptive sweeps only)"}
		}
		opts.RefineThreshold = o.RefineThreshold
	}
	if opts.CoarsePointsPerDecade > 0 && opts.RefinePointsPerDecade > 0 && opts.RefinePointsPerDecade < opts.CoarsePointsPerDecade {
		return opts, &FieldError{Field: "refine_points_per_decade",
			Reason: fmt.Sprintf("must be >= coarse_points_per_decade (%d)", opts.CoarsePointsPerDecade)}
	}
	if o.LoopTol < 0 {
		return opts, &FieldError{Field: "loop_tol", Reason: "must be >= 0 (0 = server default)"}
	}
	if o.LoopTol > 0 {
		opts.LoopTol = o.LoopTol
	}
	opts.SkipNodes = o.SkipNodes
	opts.OnlySubckt = o.OnlySubckt
	return opts, nil
}

// checkFormat validates a BatchRequest's response-format selector.
func checkFormat(format string) error {
	switch format {
	case "", "text", "csv", "json", "annotate":
		return nil
	}
	return &FieldError{Field: "format",
		Reason: fmt.Sprintf("unknown format %q (text, csv, json, annotate)", format)}
}

// WireError is a request rejection produced during decode: the HTTP
// status to answer with plus the structured error detail for the body.
type WireError struct {
	Status int
	Detail ErrorDetail
}

// Error implements the error interface.
func (e *WireError) Error() string { return e.Detail.Message }

// wireErrorFrom wraps an options/format validation failure, extracting
// the field name from FieldErrors.
func wireErrorFrom(err error) *WireError {
	we := &WireError{Status: http.StatusBadRequest,
		Detail: ErrorDetail{Code: CodeBadOption, Message: err.Error()}}
	if fe, ok := err.(*FieldError); ok {
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

// DecodeBatchRequest parses and validates a batch: strict JSON decode,
// explicit wire-version check (batches must say v=2), netlist size and
// variant count bounds, format check, and options normalization. It
// returns the request together with the normalized tool options, or a
// WireError carrying the HTTP status and structured error detail.
func DecodeBatchRequest(body []byte) (*BatchRequest, tool.Options, *WireError) {
	var req BatchRequest
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
	if err := checkFormat(req.Format); err != nil {
		return nil, tool.Options{}, wireErrorFrom(err)
	}
	opts, err := req.Options.Normalize()
	if err != nil {
		return nil, tool.Options{}, wireErrorFrom(err)
	}
	return &req, opts, nil
}
