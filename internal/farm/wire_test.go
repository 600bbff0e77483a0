package farm

import (
	"net/http"
	"testing"

	"acstab/internal/tool"
)

// TestDecodeBadOptionFields: a run setup tool.Options.Resolve refuses is
// a decode-time 400 bad_option naming the wire field, before any item
// runs. A refine resolution above the cap used to pass decode and fail
// the item after the stream had started.
func TestDecodeBadOptionFields(t *testing.T) {
	for _, tc := range []struct {
		options, field string
	}{
		{`{"fstart_hz": -1}`, "fstart_hz"},
		{`{"fstart_hz": 1e6, "fstop_hz": 10}`, "fstop_hz"},
		{`{"points_per_decade": 1000000000}`, "points_per_decade"},
		{`{"loop_tol": -0.1}`, "loop_tol"},
		{`{"refine_points_per_decade": 80}`, "refine_points_per_decade"},
		{`{"refine_threshold": 2}`, "refine_threshold"},
		{`{"coarse_points_per_decade": 10, "refine_points_per_decade": 20000}`, "refine_points_per_decade"},
	} {
		body := `{"v": 2, "netlist": "x", "variants": [{}], "options": ` + tc.options + `}`
		_, _, we := DecodeBatchRequest([]byte(body))
		if we == nil || we.Status != http.StatusBadRequest || we.Detail.Code != CodeBadOption ||
			we.Detail.Field != tc.field {
			t.Errorf("%s: wire error %+v, want 400 %s on %s", tc.options, we, CodeBadOption, tc.field)
		}
	}
}

// TestDecodeOptionsOverDefaults: absent option keys take the defaults,
// and the request carries the resolved options it returns.
func TestDecodeOptionsOverDefaults(t *testing.T) {
	req, opts, we := DecodeBatchRequest([]byte(`{"v": 2, "netlist": "x", "variants": [{}],
		"options": {"fstart_hz": 10, "coarse_points_per_decade": 8}}`))
	if we != nil {
		t.Fatal(we)
	}
	def := tool.DefaultOptions()
	if req.Options.FStart != 10 || req.Options.FStop != def.FStop || !req.Options.AutoZeroAC {
		t.Errorf("request options %+v, want fstart 10 over the defaults", req.Options)
	}
	if opts.RefinePointsPerDecade != def.PointsPerDecade || opts.RefineThreshold <= 0 {
		t.Errorf("resolved options %+v lack the adaptive defaults", opts)
	}
	if req.Options.RefinePointsPerDecade != opts.RefinePointsPerDecade ||
		req.Options.RefineThreshold != opts.RefineThreshold {
		t.Errorf("request options %+v are not the resolved %+v", req.Options, opts)
	}
}

// TestDecodeRejectsTrailingData: the wire decoder takes exactly one JSON
// document per body. Trailing whitespace is fine; trailing junk or a
// second document is a 400 bad_json.
func TestDecodeRejectsTrailingData(t *testing.T) {
	const doc = `{"v": 2, "netlist": "x", "variants": [{}]}`
	for _, tail := range []string{"", "\n", " \t\r\n"} {
		if _, _, we := DecodeBatchRequest([]byte(doc + tail)); we != nil {
			t.Errorf("body with tail %q rejected: %v", tail, we)
		}
	}
	for _, tail := range []string{" junk", `{"v":99}`, doc, "]", "0", `"x"`} {
		_, _, we := DecodeBatchRequest([]byte(doc + tail))
		if we == nil {
			t.Errorf("trailing %q accepted", tail)
			continue
		}
		if we.Status != http.StatusBadRequest || we.Detail.Code != CodeBadJSON {
			t.Errorf("trailing %q: status %d code %q, want 400 %s",
				tail, we.Status, we.Detail.Code, CodeBadJSON)
		}
	}
}
