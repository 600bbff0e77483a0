package report

import (
	"bytes"
	"context"
	"testing"

	"acstab/internal/circuits"
	"acstab/internal/tool"
)

// FuzzParseJSON feeds arbitrary bytes to ParseJSON, which reads JSON
// reports back for the benchmark oracle. It may reject its input but must
// not panic; whatever it accepts must render as text, its JSON rendering
// must equal the reference encoder's byte for byte, and that rendering
// must parse back and re-render to the same bytes. Run it with
//
//	go test -run '^$' -fuzz '^FuzzParseJSON$' -fuzztime 10s ./internal/report
func FuzzParseJSON(f *testing.F) {
	tl, err := tool.New(circuits.FullCircuit(), tool.DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	rep, err := tl.AllNodes(context.Background())
	if err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if err := JSON(&seed, rep); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	for _, s := range []string{
		"not json",
		`{"nodes":[{"node":"a","best":{"freq_hz":1,"value":-2,"type":"martian"}}]}`,
		`{"loops":[{"id":1,"freq_hz":1,"nodes":["ghost"]}]}`,
		`{"nodes":[{"node":"a","best":{"freq_hz":1,"value":-2,"type":"normal"}}],"loops":[{"id":1,"freq_hz":1,"nodes":["a"]}]}`,
		`{"nodes":[{"node":"z","skipped":true,"skip_reason":"driven"}]}`,
		`{"nodes":[]} trailing garbage`,
		`{"nodes":[{"node":"a"},{"node":"a"}]}`,
		`{"circuit":"<a&b> \"q\" \\ \u2028 \u00e9 \ud800","temp_c":1e-7,"nodes":[{"node":"\u0001","skip_reason":"x"}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := ParseJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var text, first, second, ref bytes.Buffer
		Text(&text, rep) //nolint:errcheck // errors are acceptable, panics are not
		err = JSON(&first, rep)
		refErr := referenceJSON(&ref, rep)
		if (err != nil) != (refErr != nil) || !bytes.Equal(first.Bytes(), ref.Bytes()) {
			t.Fatalf("JSON (error %v) differs from the reference encoder (error %v):\n%s\n%s",
				err, refErr, first.Bytes(), ref.Bytes())
		}
		if err != nil {
			return
		}
		again, err := ParseJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("rendered JSON does not parse back: %v\n%s", err, first.Bytes())
		}
		if err := JSON(&second, again); err != nil {
			t.Fatalf("re-render failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("JSON round trip not stable:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
