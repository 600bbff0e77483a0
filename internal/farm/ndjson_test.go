package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"acstab/internal/obs"
)

// batchItemCases are the items whose lines the worker's encoder must
// write exactly as json.Encoder does.
var batchItemCases = []BatchItem{
	{},
	{Index: 3, Label: "nom", ContentType: "application/json", Body: []byte(`{"circuit":"t"}` + "\n"), DurationMS: 12.3456},
	{Index: 1, Label: "a<b>&c", ContentType: "text/plain; charset=utf-8", Body: []byte("x"), CacheHit: true, DurationMS: 1e-9},
	{Index: 2, Label: `quote " and \ back`, Body: []byte("xy"), DurationMS: 1e22},
	{Index: 4, Label: "ctl \x00\x01\t\n\r\x1f\x7f", Body: []byte("xyz"), DurationMS: 0},
	{Index: 5, Label: "ss_−40°C µ", Body: bytes.Repeat([]byte{0, 0xff, 0x80, '\n'}, 100), DurationMS: 7},
	{Index: 6, Label: "bad utf-8 \xff\xfe, line sep \u2028\u2029", DurationMS: 0.5},
	{Index: 7, Body: []byte{}, DurationMS: -2.5e-7},
	{Index: 8, Label: "bad", Error: &ErrorDetail{Code: CodeRunFailed, Message: `unknown design variable "nosuch" <&>`}, DurationMS: 0.25},
	{Index: 9, Error: &ErrorDetail{Code: CodeBadOption, Field: "fstop_hz", Message: "fstop_hz must exceed fstart_hz"}, CacheHit: true, DurationMS: 1e21},
	{Index: 10, Error: &ErrorDetail{}, DurationMS: 1e-6},
	{Index: -1, Label: "neg", ContentType: "text/csv", Body: []byte("a,b\n1,2\n"), DurationMS: 123456789.125},
	{Index: 11, Label: "traced <&>", ContentType: "text/plain; charset=utf-8", Body: []byte("Loop at 1 MHz\n"), DurationMS: 3.5,
		Trace: &obs.Trace{Name: "farm/item", DurationNS: 3500000,
			Phases:     []obs.PhaseSpan{{Phase: "parse", DurationNS: 1000}, {Phase: "sweep", StartNS: 2000, DurationNS: 3000000}},
			Counters:   map[string]int64{"ac_solves": 241, "sweep_nodes": 1, obs.ResidualDecadeKey(-15): 241},
			SlowPoints: []obs.SlowPoint{{FreqHz: 1e6, WallNS: 900, Detail: "refactor"}, {FreqHz: 2e6, WallNS: 10, Residual: 1e-15}},
			Stats:      map[string]float64{"numerics_residual_max": 2.5e-15}}},
	{Index: 12, Error: &ErrorDetail{Code: CodeDeadlineExceeded, Message: "context deadline exceeded"}, DurationMS: 1,
		Trace: &obs.Trace{Name: "farm/item", Phases: []obs.PhaseSpan{}}},
}

func encoderLine(t testing.TB, it *BatchItem) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(it)
	return buf.Bytes(), err
}

// TestBatchItemBytesMatchEncoder pins the worker's line encoder to
// json.Encoder byte for byte, onto an empty and a non-empty buffer, and
// the client's line decoder to json.Unmarshal on each line.
func TestBatchItemBytesMatchEncoder(t *testing.T) {
	for i := range batchItemCases {
		it := &batchItemCases[i]
		want, err := encoderLine(t, it)
		if err != nil {
			t.Fatalf("case %d: encoder: %v", i, err)
		}
		got := appendBatchItem(nil, it)
		if !bytes.Equal(got, want) {
			t.Errorf("case %d:\n got %s\nwant %s", i, got, want)
		}
		prefix := []byte("previous line\n")
		if got := appendBatchItem(prefix, it); !bytes.Equal(got, append(prefix, want...)) {
			t.Errorf("case %d onto a non-empty buffer: %q", i, got)
		}
		line := bytes.TrimSuffix(want, []byte("\n"))
		checkDecodeBatchItem(t, line)
		if _, _, _, _, ok := bodyMember(line); ok != (len(it.Body) > 0) {
			t.Errorf("case %d: body carved out = %v, want %v", i, ok, len(it.Body) > 0)
		}
	}

	// A non-finite duration fails Encode, which then writes nothing.
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		it := &BatchItem{Index: 1, Label: "x", Body: []byte("b"), DurationMS: d}
		want, err := encoderLine(t, it)
		if err == nil || len(want) != 0 {
			t.Fatalf("encoder on %g: %q, %v", d, want, err)
		}
		if got := appendBatchItem([]byte("keep"), it); string(got) != "keep" {
			t.Errorf("duration %g appended %q", d, got)
		}
	}
}

// checkDecodeBatchItem is the decoder's contract: decodeBatchItem on a
// line gives what json.Unmarshal gives, an equal item or an error.
func checkDecodeBatchItem(t *testing.T, line []byte) {
	t.Helper()
	var want BatchItem
	wantErr := json.Unmarshal(line, &want)
	var got BatchItem
	gotErr := decodeBatchItem(bytes.Clone(line), &got)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("line %q: error %v, json.Unmarshal error %v", line, gotErr, wantErr)
	}
	if wantErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("line %q:\n got %+v\nwant %+v", line, got, want)
	}
}

// batchLineSeeds are lines the worker's encoder never writes: odd but
// valid layouts, and lines that take the decoder off its fast path or
// must be rejected.
var batchLineSeeds = []string{
	`{"index":0,"body":"QUJD","duration_ms":1}`,
	`{"body":"QUJD"}`,
	`{"body":"QUJD",}`,
	`{,"body":"QUJD"}`,
	`{"index":0,"body":"QU\u004aD","duration_ms":1}`,
	`{"index":0,"body":"QUJD\"","duration_ms":1}`,
	`{"index":0,"BODY":"QUJD","duration_ms":1}`,
	`{"index":0,"Body":"QUJD","body":"eHl6"}`,
	`{"index":0,"body":"QUJD","bOdY":"eHl6"}`,
	`{"body":"QUJD","bo\u0064y":"eHl6"}`,
	`{"body":"QUJD","b\u00f6dy":"eHl6","\u212a":1}`,
	"{\"body\":\"QUJD\",\"b\xc3\xb6dy\":1}",
	`{"index":0,"body":"QUJD","body":"eHl6"}`,
	`{"index":0,"bo\u0064y":"QUJD"}`,
	`{"index":0,"body":null}`,
	`{"index":0,"body":""}`,
	`{"index":0,"body":12}`,
	`{"index":0,"body":"QUJ"}`,
	`{"index":0,"body":"QU!D"}`,
	"{\"index\":0,\"body\":\"QU\rJD\"}",
	"{\"index\":0,\"body\":\"QU\tJD\"}",
	"{\"body\":\"00\n00\"}",
	`{"index":0,"body":"QUJD"} x`,
	`{"index":0,"body":"QUJD"}{"index":1}`,
	`{"index":0}{"index":1,"body":"QUJD"}`,
	`{"index":0,"body":"QUJD"`,
	`{"index":0,"body":"QUJD`,
	`{"index":"0","body":"QUJD"}`,
	`{"index":0 "body":"QUJD"}`,
	`{"index":0,"body" "QUJD"}`,
	`{"extra":{"body":"eHl6"},"body":"QUJD","x":[1,"]",{}]}`,
	` { "body" : "QUJD" , "label" : "a\"b" } `,
	`{"label":"\\","body":"QUJD"}`,
	`{"error":{"code":"x","message":"m"},"body":"QUJD","index":01}`,
	`{"index":0,"body":"QUJD","error":null,"cache_hit":false,"duration_ms":1e400}`,
	`{"index":0,"body":"QUJD","duration_ms":1,"trace":{"name":"w","duration_ns":-5,"phases":[{"phase":"sweep","start_ns":9223372036854775807,"duration_ns":1}],"counters":{"x":-1},"stats":{"a_max":1e300,"b":-1},"slow_points":[{"freq_hz":1,"wall_ns":2}],"dropped_spans":3}}`,
	`{"index":0,"trace":{"body":"eHl6"},"body":"QUJD"}`,
	`{"index":0,"trace":null}`,
	`{"index":0,"trace":[]}`,
	`null`,
	`[]`,
	`{}`,
	` { } `,
	``,
}

// FuzzDecodeBatchItem holds the batch line decoder to json.Unmarshal on
// arbitrary lines, and any trace a line carries must graft into a run
// the way the client grafts it. Run it with
//
//	go test -run '^$' -fuzz '^FuzzDecodeBatchItem$' -fuzztime 10s ./internal/farm
func FuzzDecodeBatchItem(f *testing.F) {
	for i := range batchItemCases {
		f.Add(bytes.TrimSuffix(appendBatchItem(nil, &batchItemCases[i]), []byte("\n")))
	}
	for _, s := range batchLineSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkDecodeBatchItem(t, line)
		var it BatchItem
		if decodeBatchItem(line, &it) == nil && it.Trace != nil {
			obs.StartRun("client").GraftRemote(*it.Trace, time.Now(), time.Millisecond, 1)
		}
	})
}

// TestReadBatchItems covers the NDJSON framing: lines split across reads,
// blank and CRLF lines, a last line without a newline, and lines longer
// than the starting buffer.
func TestReadBatchItems(t *testing.T) {
	var stream []byte
	var want []BatchItem
	for i := range batchItemCases {
		stream = appendBatchItem(stream, &batchItemCases[i])
		if i == 3 {
			stream = append(stream, "\n  \t\r\n"...)
		}
		var it BatchItem
		json.Unmarshal(appendBatchItem(nil, &batchItemCases[i]), &it)
		want = append(want, it)
	}
	big := BatchItem{Index: 11, Body: bytes.Repeat([]byte("report "), 5000)}
	stream = bytes.TrimSuffix(appendBatchItem(stream, &big), []byte("\n"))
	stream = bytes.Replace(stream, []byte("}\n{\"index\":2,"), []byte("}\r\n{\"index\":2,"), 1)
	want = append(want, big)

	for name, wrap := range map[string]func(io.Reader) io.Reader{
		"whole":    func(r io.Reader) io.Reader { return r },
		"one byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
	} {
		for _, buf := range [][]byte{nil, make([]byte, 7)} {
			got, err := readBatchItems(wrap(bytes.NewReader(stream)), buf)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: got %d items, want %d: %+v", name, len(got), len(want), got)
			}
		}
	}

	// A read error drops the line it cut and keeps the items before it.
	cut := errors.New("connection reset")
	line0 := appendBatchItem(nil, &batchItemCases[1])
	line1 := appendBatchItem(nil, &batchItemCases[2])
	r := io.MultiReader(bytes.NewReader(line0), bytes.NewReader(line1[:len(line1)/2]), iotest.ErrReader(cut))
	got, err := readBatchItems(r, nil)
	if !errors.Is(err, cut) || len(got) != 1 || got[0].Index != batchItemCases[1].Index {
		t.Fatalf("cut stream: %d items, err %v", len(got), err)
	}
	// A line that fails to decode ends the stream the same way; so do two
	// objects on one line and one object split across lines.
	for _, tail := range []string{`{"index":1}{"index":2}`, `{"index":1,` + "\n" + `"label":"x"}`, `{"index":`} {
		got, err := readBatchItems(strings.NewReader(string(line0)+tail), nil)
		if err == nil || len(got) != 1 {
			t.Errorf("tail %q: %d items, err %v", tail, len(got), err)
		}
	}
}

// TestSubmitBatchRetriesMidLineCut simulates a worker that dies partway
// through a line: item 0 arrives whole, item 1's line is cut and the
// connection aborted. SubmitBatch must keep item 0, drop the partial
// line, and re-submit only the unanswered variants.
func TestSubmitBatchRetriesMidLineCut(t *testing.T) {
	var attempts atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var req BatchRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Errorf("server decode: %v", err)
			http.Error(w, "bad", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		if attempts.Add(1) == 1 {
			if len(req.Variants) != 3 {
				t.Errorf("first attempt carries %d variants, want 3", len(req.Variants))
			}
			w.Write(appendBatchItem(nil, &BatchItem{Index: 0, Label: "a", Body: []byte("first")}))
			line := appendBatchItem(nil, &BatchItem{Index: 1, Label: "b", Body: []byte("never whole")})
			w.Write(line[:len(line)/2])
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}
		if len(req.Variants) != 2 {
			t.Errorf("retry carries %d variants, want 2", len(req.Variants))
		}
		for i, v := range req.Variants {
			w.Write(appendBatchItem(nil, &BatchItem{Index: i, Label: v.Label, Body: []byte(v.Label)}))
		}
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, RetryBaseDelay: time.Millisecond, MaxRetryDelay: 2 * time.Millisecond}
	results, err := c.SubmitBatch(context.Background(), &BatchRequest{
		Netlist:  "n",
		Variants: []Variant{{Label: "a"}, {Label: "b"}, {Label: "c"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts.Load() != 2 {
		t.Fatalf("server saw %d attempts, want 2", attempts.Load())
	}
	wantBody := []string{"first", "b", "c"}
	wantAttempts := []int{1, 2, 2}
	for i, res := range results {
		if res.Err != nil || string(res.Body) != wantBody[i] || res.Attempts != wantAttempts[i] {
			t.Errorf("result %d: body %q attempts %d err %v, want %q after %d",
				i, res.Body, res.Attempts, res.Err, wantBody[i], wantAttempts[i])
		}
	}
}

// endlessWorker answers every request with status and prefix, then
// streams filler until the client hangs up.
func endlessWorker(status int, prefix string) *httptest.Server {
	filler := bytes.Repeat([]byte("x"), 32<<10)
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(status)
		w.Write([]byte(prefix))
		for r.Context().Err() == nil {
			if _, err := w.Write(filler); err != nil {
				return
			}
		}
	}))
}

// returnsSoon fails the test unless call returns within a few seconds,
// long before an unbounded read of an endless body would.
func returnsSoon(t *testing.T, name string, call func(ctx context.Context) error) error {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- call(ctx) }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		cancel()
		<-done
		t.Fatalf("%s: client still reading an endless response after 5 s", name)
		return nil
	}
}

// TestClientBoundsFailedResponse: a worker that fails with an endless
// body, or that streams without end after a bad batch line, cannot hold
// the client, and an error message is cut at maxErrorBodyBytes.
func TestClientBoundsFailedResponse(t *testing.T) {
	failing := endlessWorker(http.StatusInternalServerError, "")
	defer failing.Close()
	c := &Client{BaseURL: failing.URL, MaxRetries: -1}
	err := returnsSoon(t, "batch", func(ctx context.Context) error {
		_, err := c.SubmitBatch(ctx, &BatchRequest{Netlist: tankNetlist, Variants: []Variant{{}}})
		return err
	})
	var se *StatusError
	if !errors.As(err, &se) || se.StatusCode != http.StatusInternalServerError {
		t.Fatalf("err = %v, want a 500 StatusError", err)
	}
	if len(se.Message) != maxErrorBodyBytes {
		t.Errorf("message of %d bytes, want %d", len(se.Message), maxErrorBodyBytes)
	}

	streaming := endlessWorker(http.StatusOK, "{nope\n")
	defer streaming.Close()
	c = &Client{BaseURL: streaming.URL, MaxRetries: -1}
	err = returnsSoon(t, "batch stream", func(ctx context.Context) error {
		_, err := c.SubmitBatch(ctx, &BatchRequest{Netlist: tankNetlist, Variants: []Variant{{}}})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "batch stream") {
		t.Fatalf("err = %v, want the stream's decode error", err)
	}
}

// BenchmarkBatchLine times one result line of Table 2's size (a 17 KB
// JSON report body) through each end of the wire, against the
// encoding/json calls they replace.
func BenchmarkBatchLine(b *testing.B) {
	it := &BatchItem{Index: 7, Label: "c1_1.5p", ContentType: "application/json",
		Body:       bytes.Repeat([]byte(`      "freq_hz": 12345678.901234,`+"\n"), 480),
		CacheHit:   true,
		DurationMS: 9.8765}
	line := appendBatchItem(nil, it)
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = appendBatchItem(buf[:0], it)
		}
	})
	b.Run("json.Encoder", func(b *testing.B) {
		b.ReportAllocs()
		enc := json.NewEncoder(io.Discard)
		for i := 0; i < b.N; i++ {
			enc.Encode(it)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, len(line))
		for i := 0; i < b.N; i++ {
			copy(buf, line)
			var got BatchItem
			if err := decodeBatchItem(buf[:len(line)-1], &got); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json.Decoder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var got BatchItem
			if err := json.NewDecoder(bytes.NewReader(line)).Decode(&got); err != nil {
				b.Fatal(err)
			}
		}
	})
}
