package report

import (
	"bytes"
	"context"
	"testing"

	"acstab/internal/circuits"
	"acstab/internal/tool"
)

// FuzzParseJSON feeds arbitrary bytes to ParseJSON, which reads worker
// reports back in the shard coordinator. It may reject its input but must
// not panic; whatever it accepts must render as text, and a JSON
// rendering of it must parse back and re-render to the same bytes. Run
// it with
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
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := ParseJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var text, first, second bytes.Buffer
		Text(&text, rep) //nolint:errcheck // errors are acceptable, panics are not
		if err := JSON(&first, rep); err != nil {
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
