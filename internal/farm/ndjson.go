// ndjson.go writes and reads the lines of a /batch response stream
// without reflection on the untraced path. The worker appends each
// BatchItem by hand, byte for byte as json.Encoder would write it; the
// client reads the stream a line at a time, base64-decodes the large
// body member straight out of the line and leaves the small remainder to
// json.Unmarshal.

package farm

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"

	"acstab/internal/report"
)

// lineBufs recycles the line buffers of both ends of /batch, the
// worker's item encoder and the client's stream reader, and the render
// buffer RunBatch lends its items. Each borrows one for its whole
// stream or batch. The starting size holds the line of a Table 2 JSON
// report (about 23 KB).
var lineBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 64<<10)
	return &b
}}

// maxPooledLine keeps a buffer grown by one outsized report out of the
// pool.
const maxPooledLine = 1 << 20

// putLineBuf returns a buffer borrowed from lineBufs, emptied.
func putLineBuf(bp *[]byte) {
	if cap(*bp) > maxPooledLine {
		return
	}
	*bp = (*bp)[:0]
	lineBufs.Put(bp)
}

// appendBatchItem appends it as one NDJSON line: exactly the bytes
// json.NewEncoder(w).Encode(it) writes. Members keep BatchItem's field
// order and omitempty rules, strings are HTML-escaped, duration_ms uses
// encoding/json's float format, the body is padded standard base64, and
// the line ends in a newline. The trace member of a traced item is the
// one part left to encoding/json. A non-finite DurationMS (time.Since
// never yields one) or a trace that does not encode appends nothing, as
// Encode wrote nothing for them.
func appendBatchItem(dst []byte, it *BatchItem) []byte {
	n0 := len(dst)
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(it.Index), 10)
	if it.Label != "" {
		dst = append(dst, `,"label":`...)
		dst = report.AppendJSONString(dst, it.Label)
	}
	if it.ContentType != "" {
		dst = append(dst, `,"content_type":`...)
		dst = report.AppendJSONString(dst, it.ContentType)
	}
	if len(it.Body) > 0 {
		dst = append(dst, `,"body":"`...)
		dst = base64.StdEncoding.AppendEncode(dst, it.Body)
		dst = append(dst, '"')
	}
	if e := it.Error; e != nil {
		dst = append(dst, `,"error":{"code":`...)
		dst = report.AppendJSONString(dst, e.Code)
		if e.Field != "" {
			dst = append(dst, `,"field":`...)
			dst = report.AppendJSONString(dst, e.Field)
		}
		dst = append(dst, `,"message":`...)
		dst = report.AppendJSONString(dst, e.Message)
		dst = append(dst, '}')
	}
	if it.CacheHit {
		dst = append(dst, `,"cache_hit":true`...)
	}
	dst = append(dst, `,"duration_ms":`...)
	dst, err := report.AppendJSONFloat(dst, it.DurationMS)
	if err != nil {
		return dst[:n0]
	}
	if it.Trace != nil {
		tr, err := json.Marshal(it.Trace)
		if err != nil {
			return dst[:n0]
		}
		dst = append(append(dst, `,"trace":`...), tr...)
	}
	return append(dst, '}', '\n')
}

// readBatchItems decodes an NDJSON batch stream one line at a time,
// scanning into buf, which grows when a line needs it. Lines holding
// only whitespace are skipped, and a last line without a newline is
// decoded like any other. It returns the items decoded before the first
// read or decode error, and that error: nil at a clean end of stream. A
// line cut short by a read error fails to decode and is dropped, and
// the read error is what returns.
func readBatchItems(r io.Reader, buf []byte) ([]BatchItem, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(buf, math.MaxInt)
	var items []BatchItem
	for sc.Scan() {
		line := sc.Bytes()
		if skipSpace(line, 0) == len(line) {
			continue
		}
		var it BatchItem
		if err := decodeBatchItem(line, &it); err != nil {
			if rerr := sc.Err(); rerr != nil {
				return items, rerr
			}
			return items, err
		}
		items = append(items, it)
	}
	return items, sc.Err()
}

// decodeBatchItem decodes one NDJSON line into it, which must be zero,
// with exactly json.Unmarshal(line, it)'s outcome: an equal item, or an
// error wherever Unmarshal fails. When the line's top-level "body"
// member is a plain base64 string, the body is decoded straight from
// the line and the member is cut out of it in place, so Unmarshal only
// sees the small remainder. Any other line goes to Unmarshal whole.
func decodeBatchItem(line []byte, it *BatchItem) error {
	cut0, cut1, v0, v1, ok := bodyMember(line)
	if ok && bytes.IndexByte(line[v0:v1], '\r') < 0 && bytes.IndexByte(line[v0:v1], '\n') < 0 {
		// base64 skips '\r' and '\n', which JSON rejects inside a
		// string; every other byte outside the alphabet, a backslash
		// included, fails the decode.
		body := make([]byte, base64.StdEncoding.DecodedLen(v1-v0))
		if n, err := base64.StdEncoding.Decode(body, line[v0:v1]); err == nil {
			rest := append(line[:cut0], line[cut1:]...)
			if err := json.Unmarshal(rest, it); err != nil {
				return err
			}
			it.Body = body[:n]
			return nil
		}
	}
	return json.Unmarshal(line, it)
}

// bodyMember finds the top-level "body" member of the JSON object in
// line. It returns the span [cut0, cut1) that removes the member and
// one comma next to it, and the span [v0, v1) of its string value
// inside the quotes. ok is false, and the line must go to json.Unmarshal
// whole, unless line opens with an object whose top-level members are
// well delimited up to its closing brace, exactly one key is "body", no
// other key could match BatchItem.Body under encoding/json's case
// folding (any key with an escape or a non-ASCII byte might), and the
// body value is a string. Member values other than the body are
// skipped, not checked: they stay in the remainder, where Unmarshal
// checks them.
func bodyMember(line []byte) (cut0, cut1, v0, v1 int, ok bool) {
	i := skipSpace(line, 0)
	if i == len(line) || line[i] != '{' {
		return
	}
	i = skipSpace(line, i+1)
	found := false
	comma := -1 // the comma before the current member, -1 for the first
	for {
		if i == len(line) || line[i] != '"' {
			return
		}
		k0 := i
		i = skipString(line, i)
		if i < 0 {
			return
		}
		key := line[k0+1 : i-1]
		isBody := string(key) == "body"
		if !isBody && (len(key) == 4 && bytes.EqualFold(key, []byte("body")) || !plainKey(key)) {
			return
		}
		i = skipSpace(line, i)
		if i == len(line) || line[i] != ':' {
			return
		}
		i = skipSpace(line, i+1)
		val := i
		if i = skipValue(line, i); i < 0 {
			return
		}
		if isBody {
			if found || line[val] != '"' {
				return
			}
			found = true
			v0, v1 = val+1, i-1
			cut0, cut1 = comma, i
			if comma < 0 {
				// The first member: cut from its key through the comma
				// after it (the loop checks a member follows), or to its
				// value's end when it is the only member.
				cut0 = k0
			}
		}
		i = skipSpace(line, i)
		if i == len(line) {
			return
		}
		switch line[i] {
		case ',':
			if isBody && comma < 0 {
				cut1 = i + 1
			}
			comma = i
			i = skipSpace(line, i+1)
		case '}':
			return cut0, cut1, v0, v1, found
		default:
			return
		}
	}
}

// plainKey reports whether key has neither an escape nor a non-ASCII
// byte, so that its bytes are the member name encoding/json matches.
func plainKey(key []byte) bool {
	for _, c := range key {
		if c == '\\' || c >= 0x80 {
			return false
		}
	}
	return true
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// skipString returns the index just past the string that opens at
// b[i] == '"', or -1 when it is unterminated. A quote closes the string
// unless an odd run of backslashes precedes it.
func skipString(b []byte, i int) int {
	i++
	for {
		q := bytes.IndexByte(b[i:], '"')
		if q < 0 {
			return -1
		}
		j := i + q
		k := j
		for k > i && b[k-1] == '\\' {
			k--
		}
		if (j-k)%2 == 0 {
			return j + 1
		}
		i = j + 1
	}
}

// skipValue returns the index just past the value that starts at b[i],
// or -1 when the line ends inside it. Strings are skipped whole, objects
// and arrays by bracket depth outside strings, and anything else up to
// the next ',', '}' or ']'.
func skipValue(b []byte, i int) int {
	if i == len(b) {
		return -1
	}
	switch b[i] {
	case '"':
		return skipString(b, i)
	case '{', '[':
		depth := 0
		for i < len(b) {
			switch b[i] {
			case '"':
				if i = skipString(b, i); i < 0 {
					return -1
				}
				continue
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
			i++
		}
		return -1
	}
	for i < len(b) && b[i] != ',' && b[i] != '}' && b[i] != ']' {
		i++
	}
	return i
}
