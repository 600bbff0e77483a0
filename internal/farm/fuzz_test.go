package farm

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// wireSeeds are request bodies from the wire tests: bodies written for
// the retired v1 (/run) wire, which must now get typed rejections,
// accepted batches, each typed rejection, trailing data after a valid
// document, and traced batches.
var wireSeeds = []string{
	`{"netlist": "x"}`,
	`{"netlist":"farm tank\nR1 t 0 318\nL1 t 0 25.33u\nC1 t 0 1n\n"}`,
	`{"netlist":"farm tank\nR1 t 0 318\n","trace_id":"tr-wide-1","collect_trace":true}`,
	`{"v": 1, "netlist": "x", "node": "t", "format": "csv", "timeout_ms": 50, "variables": {"rl": 2}}`,
	`{"v": 2, "netlist": "x"}`,
	`{"netlist": "x", "bogus_field": 1}`,
	`{"v": 1, "netlist": "x", "options": {"naive": true}}`,
	`{nope`,
	`{"v": 1, "netlist": "x", "variants": [{}]}`,
	`{"netlist": "x", "variants": [{}]}`,
	`{"v": 2, "netlist": "x", "variants": [{}]}`,
	`{"v": 2, "netlist": "x", "variants": []}`,
	`{"v": 2, "netlist": "x", "variants": [{}], "options": {"fstart_hz": 10, "fstop_hz": 1}}`,
	`{"v": 2, "netlist": "x", "format": "yaml", "variants": [{}]}`,
	`{"v": 2, "netlist": "x", "variants": [{}], "bogus": 1}`,
	`{"netlist": "x"} junk`,
	`{"netlist": "x"}{"v":99}`,
	`{"v": 2, "netlist": "x", "variants": [{}]} junk`,
	`{"v": 2, "netlist": "x", "variants": [{}]}{"v":99}`,
	`{"v": 2, "netlist": "x", "variants": [{}], "collect_trace": true}`,
	`{"v": 2, "netlist": "x", "variants": [{"label": "a"}, {}], "trace_id": "tr-1", "collect_trace": false}`,
	`{"v": 2, "netlist": "x", "variants": [{}], "collect_trace": "yes"}`,
}

// checkDecode is the fuzz property of the wire decoder: any body may be
// rejected, but only with a typed 4xx, and an accepted body must
// re-encode to a body the decoder accepts again, with a stable encoding
// from then on.
func checkDecode(t *testing.T, data []byte) {
	req, _, we := DecodeBatchRequest(data)
	if we != nil {
		if req != nil {
			t.Fatalf("rejection %v came with a request", we)
		}
		if we.Status/100 != 4 || we.Detail.Code == "" {
			t.Fatalf("rejection without a typed 4xx: status %d detail %+v", we.Status, we.Detail)
		}
		return
	}
	if req == nil {
		t.Fatal("accepted body decoded to a nil request")
	}
	first, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("accepted request does not encode: %v", err)
	}
	again, _, we := DecodeBatchRequest(first)
	if we != nil {
		t.Fatalf("re-encoded request rejected: %v\n%s", we, first)
	}
	second, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("encoding not stable:\n%s\n%s", first, second)
	}
}

// FuzzDecodeRequest feeds arbitrary bodies to both places a single-job
// request can land: the retired /run must answer every body with a typed
// 410 naming /batch, and the /batch decoder, besides the shared property,
// must accept a body only as an explicit v2 batch carrying variants, so a
// body written for the v1 wire is never run as something else. Run it with
//
//	go test -run '^$' -fuzz '^FuzzDecodeRequest$' -fuzztime 10s ./internal/farm
func FuzzDecodeRequest(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := httptest.NewRecorder()
		handleRunRemoved(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(data)))
		var eb ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || rec.Code != http.StatusGone ||
			eb.Error.Code != CodeUnsupportedVersion || !strings.Contains(eb.Error.Message, "/batch") {
			t.Fatalf("/run: status %d, body %q (%v), want 410 %s naming /batch",
				rec.Code, rec.Body.String(), err, CodeUnsupportedVersion)
		}
		checkDecode(t, data)
		if req, _, we := DecodeBatchRequest(data); we == nil && (req.V != WireV2 || len(req.Variants) == 0) {
			t.Fatalf("accepted a body that is not a v2 batch with variants: v=%d, %d variants", req.V, len(req.Variants))
		}
	})
}

// FuzzDecodeBatchRequest feeds arbitrary bodies to DecodeBatchRequest,
// the /batch endpoint's decoder. Run it with
//
//	go test -run '^$' -fuzz '^FuzzDecodeBatchRequest$' -fuzztime 10s ./internal/farm
func FuzzDecodeBatchRequest(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkDecode)
}
