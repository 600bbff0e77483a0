package farm

import (
	"errors"
	"net/http"
	"strings"
	"testing"

	"acstab/internal/circuits"
	"acstab/internal/tool"
)

func TestNormalizeDefaults(t *testing.T) {
	opts, err := (RequestOptions{}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if opts.FStart <= 0 || opts.FStop <= opts.FStart || opts.PointsPerDecade <= 0 {
		t.Errorf("zero options did not take defaults: %+v", opts)
	}
	// Explicit values pass through.
	opts, err = (RequestOptions{FStartHz: 10, FStopHz: 1e6, PointsPerDecade: 7,
		SkipNodes: []string{"x"}}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if opts.FStart != 10 || opts.FStop != 1e6 || opts.PointsPerDecade != 7 ||
		len(opts.SkipNodes) != 1 {
		t.Errorf("explicit options mangled: %+v", opts)
	}
}

// TestNormalizePPDCap: the points-per-decade cap is inclusive, and a
// request at it passes the tool's own validation too.
func TestNormalizePPDCap(t *testing.T) {
	opts, err := (RequestOptions{PointsPerDecade: tool.MaxPointsPerDecade}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tool.New(circuits.SecondOrder(0.3, 1e6), opts); err != nil {
		t.Errorf("tool rejects the wire's largest ppd: %v", err)
	}
}

// TestNormalizeRejectionMessages pins the wording of range rejections:
// every knob that accepts 0 as "server default" must say ">= 0" — the
// fstart_hz/fstop_hz messages used to claim "must be > 0" while the
// check only rejected negatives, telling a caller who sent a legal 0
// that their request was invalid.
func TestNormalizeRejectionMessages(t *testing.T) {
	for _, in := range []RequestOptions{
		{FStartHz: -1},
		{FStopHz: -1},
		{PointsPerDecade: -1},
		{LoopTol: -0.1},
	} {
		_, err := in.Normalize()
		if err == nil {
			t.Fatalf("%+v: no error", in)
		}
		var fe *FieldError
		if !errors.As(err, &fe) {
			t.Fatalf("%+v: err = %v, want *FieldError", in, err)
		}
		if !strings.Contains(fe.Reason, "must be >= 0") {
			t.Errorf("%s: message %q does not say \"must be >= 0\"", fe.Field, fe.Reason)
		}
	}
}

func TestNormalizeFieldErrors(t *testing.T) {
	for _, tc := range []struct {
		name  string
		in    RequestOptions
		field string
	}{
		{"negative fstart", RequestOptions{FStartHz: -1}, "fstart_hz"},
		{"negative fstop", RequestOptions{FStopHz: -1}, "fstop_hz"},
		{"inverted range", RequestOptions{FStartHz: 1e6, FStopHz: 10}, "fstop_hz"},
		{"negative ppd", RequestOptions{PointsPerDecade: -1}, "points_per_decade"},
		{"ppd 1e9", RequestOptions{PointsPerDecade: 1e9}, "points_per_decade"},
		{"ppd above the cap", RequestOptions{PointsPerDecade: tool.MaxPointsPerDecade + 1}, "points_per_decade"},
		{"negative loop_tol", RequestOptions{LoopTol: -0.1}, "loop_tol"},
	} {
		_, err := tc.in.Normalize()
		var fe *FieldError
		if !errors.As(err, &fe) {
			t.Errorf("%s: err = %v, want *FieldError", tc.name, err)
			continue
		}
		if fe.Field != tc.field {
			t.Errorf("%s: field %q, want %q", tc.name, fe.Field, tc.field)
		}
		// The wire mapping turns the field error into a 400 bad_option with
		// the field attributed.
		we := wireErrorFrom(err)
		if we.Status != 400 || we.Detail.Code != CodeBadOption || we.Detail.Field != tc.field {
			t.Errorf("%s: wire error %+v", tc.name, we)
		}
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
