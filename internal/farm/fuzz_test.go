package farm

import (
	"bytes"
	"encoding/json"
	"testing"
)

// wireSeeds are request bodies from the wire tests: accepted jobs,
// each typed rejection, and trailing data after a valid document.
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
}

// checkDecode is the shared fuzz property of the wire decoders: any body
// may be rejected, but only with a typed 4xx, and an accepted body must
// re-encode to a body the decoder accepts again, with a stable encoding
// from then on.
func checkDecode[R any](t *testing.T, data []byte, decode func([]byte) (*R, *WireError)) {
	req, we := decode(data)
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
	again, we := decode(first)
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

// FuzzDecodeRequest feeds arbitrary bodies to DecodeRequest, the /run
// endpoint's decoder. Run it with
//
//	go test -run '^$' -fuzz '^FuzzDecodeRequest$' -fuzztime 10s ./internal/farm
func FuzzDecodeRequest(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data, func(b []byte) (*Request, *WireError) {
			req, _, we := DecodeRequest(b)
			return req, we
		})
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
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data, func(b []byte) (*BatchRequest, *WireError) {
			req, _, we := DecodeBatchRequest(b)
			return req, we
		})
	})
}
