package netserve

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"time"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"sharedwd/internal/core"
	"sharedwd/internal/server"
)

// The query path's JSON codec. /v1/query and /v1/query/batch carry the
// schema of the request and response structs in handlers.go, but encode
// and decode it by hand, appending into reused buffers: reflection JSON
// cost more CPU per batch than the auctions it carried.
//
// encoding/json stays the reference. The encoders write exactly the bytes
// json.NewEncoder(w).Encode writes for the same struct, trailing newline
// included. The request decoders accept exactly the bodies
// json.Decoder.Decode accepts, with the values it yields. The client's
// reply decoders may refuse more (a repeated array key, a query echo that
// differs), but what they accept encoding/json accepts with equal values.
// FuzzHTTPBody and FuzzHTTPReply hold all three against encoding/json.

// maxPooledBuf caps the buffers the pool keeps; a larger one (a reply to
// an unusually wide batch) is left to the garbage collector.
const maxPooledBuf = 64 << 10

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// readAll appends everything r yields to buf. The buffer grows with the
// bytes that arrive, never by a length the peer declared. At io.EOF the
// error is nil; any other read error is returned with the bytes before it.
func readAll(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// ---- Encoding ----

// htmlSafe[b] reports whether appendString copies the ASCII byte b as is
// (encoding/json's htmlSafeSet).
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for b := range t {
		t[b] = b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does with
// HTML escaping on: <, > and & as \u003c-style escapes, control
// characters as \b \f \n \r \t or \u00XX, U+2028 and U+2029 escaped, and
// every byte of invalid UTF-8 as \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendFloat appends f as encoding/json's float64 encoder does: the
// shortest 'f' form, or 'e' below 1e-6 and from 1e21 up with the
// exponent's leading zero dropped. ok=false for NaN and ±Inf, which JSON
// cannot carry (json.Encoder fails on them and writes nothing).
func appendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

func appendInt(dst []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// appendSlots appends a []core.SlotResult (nil as null).
func appendSlots(dst []byte, slots []core.SlotResult) ([]byte, bool) {
	if slots == nil {
		return append(dst, "null"...), true
	}
	dst = append(dst, '[')
	for i, s := range slots {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendInt(dst, `{"slot":`, int64(s.Slot))
		dst = appendInt(dst, `,"advertiser":`, int64(s.Advertiser))
		var ok bool
		if dst, ok = appendFloat(append(dst, `,"price_paid":`...), s.PricePaid); !ok {
			return dst, false
		}
		dst = append(dst, '}')
	}
	return append(dst, ']'), true
}

// appendQueryResponse appends json.Encoder's bytes for r.
func appendQueryResponse(dst []byte, r *queryResponse) ([]byte, bool) {
	dst = appendString(append(dst, `{"query":`...), r.Query)
	dst = appendInt(dst, `,"phrase":`, int64(r.Phrase))
	dst = appendInt(dst, `,"shard":`, int64(r.Shard))
	dst = appendInt(dst, `,"round":`, int64(r.Round))
	var ok bool
	if dst, ok = appendSlots(append(dst, `,"slots":`...), r.Slots); !ok {
		return dst, false
	}
	dst = appendInt(dst, `,"latency_ns":`, r.LatencyNS)
	return append(dst, "}\n"...), true
}

// appendBatchItem appends encoding/json's bytes for one batchItem,
// omitempty fields left out when zero.
func appendBatchItem(dst []byte, it *batchItem) ([]byte, bool) {
	dst = appendString(append(dst, `{"query":`...), it.Query)
	if it.Phrase != 0 {
		dst = appendInt(dst, `,"phrase":`, int64(it.Phrase))
	}
	if it.Shard != 0 {
		dst = appendInt(dst, `,"shard":`, int64(it.Shard))
	}
	if it.Round != 0 {
		dst = appendInt(dst, `,"round":`, int64(it.Round))
	}
	if len(it.Slots) != 0 {
		var ok bool
		if dst, ok = appendSlots(append(dst, `,"slots":`...), it.Slots); !ok {
			return dst, false
		}
	}
	if it.LatencyNS != 0 {
		dst = appendInt(dst, `,"latency_ns":`, it.LatencyNS)
	}
	if it.Error != "" {
		dst = appendString(append(dst, `,"error":`...), it.Error)
	}
	if it.Retryable {
		dst = append(dst, `,"retryable":true`...)
	}
	if it.Code != 0 {
		dst = appendInt(dst, `,"code":`, int64(it.Code))
	}
	return append(dst, '}'), true
}

// batchItemFor is the reply item for query q, answered with res or failed
// with err.
func batchItemFor(q string, res *server.Result, err error) batchItem {
	if err != nil {
		code, retryable := submitStatus(err)
		return batchItem{Query: q, Error: err.Error(), Retryable: retryable, Code: code}
	}
	return batchItem{
		Query:     q,
		Phrase:    res.Phrase,
		Shard:     res.Shard,
		Round:     res.Round,
		Slots:     res.Slots,
		LatencyNS: int64(res.Latency),
	}
}

// appendBatchReply appends json.Encoder's bytes for the batchResponse that
// answers queries with results and errs, item by item.
func appendBatchReply(dst []byte, queries []string, results []server.Result, errs []error) ([]byte, bool) {
	dst = append(dst, `{"results":[`...)
	for i, q := range queries {
		if i > 0 {
			dst = append(dst, ',')
		}
		item := batchItemFor(q, &results[i], errs[i])
		var ok bool
		if dst, ok = appendBatchItem(dst, &item); !ok {
			return dst, false
		}
	}
	return append(dst, "]}\n"...), true
}

// appendQueryRequest appends json.Encoder's bytes for queryRequest{Query: query}.
func appendQueryRequest(dst []byte, query string) []byte {
	dst = appendString(append(dst, `{"query":`...), query)
	return append(dst, "}\n"...)
}

// appendBatchRequest appends json.Encoder's bytes for
// batchRequest{Queries: queries}.
func appendBatchRequest(dst []byte, queries []string) []byte {
	if queries == nil {
		return append(dst, "{\"queries\":null}\n"...)
	}
	dst = append(dst, `{"queries":[`...)
	for i, q := range queries {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, q)
	}
	return append(dst, "]}\n"...)
}

// ---- Decoding ----

// maxNestingDepth is encoding/json's bound on nested arrays and objects.
const maxNestingDepth = 10000

// errIncomplete reports input that ended inside the first value: a
// decoder reading from a stream would have read on.
var errIncomplete = errors.New("netserve: JSON value incomplete")

// reader is a validating JSON reader over one buffered body. Every value
// it consumes is checked against the grammar json.Decoder's scanner
// enforces, so a caller that decodes field by field and skips the rest
// accepts exactly the well-formed input.
type reader struct {
	data []byte
	pos  int
	// err is the first syntax error, or errIncomplete; it ends the read.
	err error
	// typeErr is the first value of the wrong type. The value is skipped
	// and reading goes on, as encoding/json goes on, so that a later
	// syntax error still wins.
	typeErr error
	// scratch holds the last string that needed unquoting.
	scratch []byte
}

func (r *reader) failed() bool { return r.err != nil || r.typeErr != nil }

func (r *reader) incomplete() {
	if r.err == nil {
		r.err = errIncomplete
	}
}

// syntax records malformed input; msg follows encoding/json's wording.
func (r *reader) syntax(msg string) {
	if r.err == nil {
		r.err = errors.New(msg)
	}
}

// invalid reports the byte at r.pos as a syntax error in context.
func (r *reader) invalid(context string) {
	r.syntax(fmt.Sprintf("invalid character %q %s", r.data[r.pos], context))
}

// jsonKind names the kind of JSON value that starts with c.
func jsonKind(c byte) string {
	switch c {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	}
	return "number"
}

// wrongType records a type mismatch unless an earlier one is recorded.
func (r *reader) wrongType(value, field, goType string) {
	if r.typeErr == nil {
		r.typeErr = fmt.Errorf("cannot unmarshal %s into %s of type %s", value, field, goType)
	}
}

// mismatch skips the value starting with c, which cannot go into field,
// of goType, and records the mismatch.
func (r *reader) mismatch(c byte, depth int, field, goType string) {
	if r.skip(depth) {
		r.wrongType(jsonKind(c), field, goType)
	}
}

// peek skips whitespace and returns the next byte.
func (r *reader) peek() (byte, bool) {
	for ; r.pos < len(r.data); r.pos++ {
		switch c := r.data[r.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c, true
		}
	}
	r.incomplete()
	return 0, false
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// str reads the string token at r.pos and returns its unquoted bytes: a
// sub-slice of data when nothing needs rewriting, else r.scratch (valid
// until the next str).
func (r *reader) str() ([]byte, bool) {
	d := r.data
	start := r.pos + 1
	plain := true
	for i := start; ; {
		if i >= len(d) {
			r.pos = i
			r.incomplete()
			return nil, false
		}
		switch c := d[i]; {
		case c == '"':
			r.pos = i + 1
			if plain {
				return d[start:i], true
			}
			return r.unquote(d[start:i]), true
		case c == '\\':
			plain = false
			if i+1 >= len(d) {
				r.pos = i + 1
				r.incomplete()
				return nil, false
			}
			switch d[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for j := i + 2; j < i+6; j++ {
					if j >= len(d) {
						r.pos = j
						r.incomplete()
						return nil, false
					}
					if !isHex(d[j]) {
						r.pos = j
						r.invalid("in \\u hexadecimal character escape")
						return nil, false
					}
				}
				i += 6
			default:
				r.pos = i + 1
				r.invalid("in string escape code")
				return nil, false
			}
		case c < ' ':
			r.pos = i
			r.invalid("in string literal")
			return nil, false
		case c < utf8.RuneSelf:
			i++
		default:
			ch, size := utf8.DecodeRune(d[i:])
			if ch == utf8.RuneError && size == 1 {
				plain = false // coerced to U+FFFD
			}
			i += size
		}
	}
}

// hex4 parses the four hex digits of a \u escape at s, or returns -1 if s
// does not start with one.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case isDigit(c):
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// unquote rewrites the (validated) content of a string token as
// encoding/json's unquoteBytes does: escapes resolved, surrogate pairs
// joined, lone surrogates and invalid UTF-8 coerced to U+FFFD.
func (r *reader) unquote(s []byte) []byte {
	b := r.scratch[:0]
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == '\\':
			switch e := s[i+1]; e {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := hex4(s[i:])
				i += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, hex4(s[i:])); dec != unicode.ReplacementChar {
						b = utf8.AppendRune(b, dec)
						i += 6
						continue
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default: // '"', '\\', '/'
				b = append(b, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			rr, size := utf8.DecodeRune(s[i:])
			b = utf8.AppendRune(b, rr)
			i += size
		}
	}
	r.scratch = b
	return b
}

// number reads the number token at r.pos. It ends at the first byte that
// cannot continue it; the caller judges one that runs to the end of data.
func (r *reader) number() ([]byte, bool) {
	d, start, i := r.data, r.pos, r.pos
	eof := func() ([]byte, bool) {
		r.pos = i
		r.incomplete()
		return nil, false
	}
	bad := func(context string) ([]byte, bool) {
		r.pos = i
		r.invalid(context)
		return nil, false
	}
	if d[i] == '-' {
		i++
		if i >= len(d) {
			return eof()
		}
	}
	switch {
	case d[i] == '0':
		i++
	case isDigit(d[i]):
		for i++; i < len(d) && isDigit(d[i]); i++ {
		}
	default:
		return bad("in numeric literal")
	}
	if i < len(d) && d[i] == '.' {
		if i++; i >= len(d) {
			return eof()
		}
		if !isDigit(d[i]) {
			return bad("after decimal point in numeric literal")
		}
		for i++; i < len(d) && isDigit(d[i]); i++ {
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) {
			return eof()
		}
		if !isDigit(d[i]) {
			return bad("in exponent of numeric literal")
		}
		for i++; i < len(d) && isDigit(d[i]); i++ {
		}
	}
	r.pos = i
	return d[start:i], true
}

// literal reads the literal word (true, false or null) at r.pos.
func (r *reader) literal(word string) bool {
	for k := 0; k < len(word); k++ {
		i := r.pos + k
		if i >= len(r.data) {
			r.pos = i
			r.incomplete()
			return false
		}
		if r.data[i] != word[k] {
			r.pos = i
			r.invalid(fmt.Sprintf("in literal %s (expecting %q)", word, word[k]))
			return false
		}
	}
	r.pos += len(word)
	return true
}

// key reads an object key and the colon after it.
func (r *reader) key() ([]byte, bool) {
	c, ok := r.peek()
	if !ok {
		return nil, false
	}
	if c != '"' {
		r.invalid("looking for beginning of object key string")
		return nil, false
	}
	k, ok := r.str()
	if !ok {
		return nil, false
	}
	if c, ok = r.peek(); !ok {
		return nil, false
	}
	if c != ':' {
		r.invalid("after object key")
		return nil, false
	}
	r.pos++
	return k, true
}

// member steps to the next member of an object whose '{' is consumed
// (first: the first call for it). It returns the member's key with the
// colon consumed, or false at the closing brace or on error.
func (r *reader) member(first bool) ([]byte, bool) {
	c, ok := r.peek()
	switch {
	case !ok:
		return nil, false
	case c == '}':
		r.pos++
		return nil, false
	case first:
		return r.key()
	case c == ',':
		r.pos++
		return r.key()
	}
	r.invalid("after object key:value pair")
	return nil, false
}

// element steps to the next element of an array whose '[' is consumed; it
// returns false at the closing bracket or on error.
func (r *reader) element(first bool) bool {
	c, ok := r.peek()
	switch {
	case !ok:
		return false
	case c == ']':
		r.pos++
		return false
	case first:
		return true
	case c == ',':
		r.pos++
		return true
	}
	r.invalid("after array element")
	return false
}

// skip reads and validates one value of any type, nested in depth
// containers already; nesting past maxNestingDepth is an error.
func (r *reader) skip(depth int) bool {
	var objs [maxNestingDepth/64 + 1]uint64 // bit k: container base+k+1 is an object
	base := depth
	inObject := func() bool {
		k := depth - base - 1
		return objs[k/64]&(1<<(k%64)) != 0
	}
	for {
		// A value starts here.
		c, ok := r.peek()
		if !ok {
			return false
		}
		switch {
		case c == '{' || c == '[':
			if depth >= maxNestingDepth {
				r.syntax("exceeded max depth")
				return false
			}
			k := depth - base
			if c == '{' {
				objs[k/64] |= 1 << (k % 64)
			} else {
				objs[k/64] &^= 1 << (k % 64)
			}
			depth++
			r.pos++
			end := byte(']')
			if c == '{' {
				end = '}'
			}
			if c, ok = r.peek(); !ok {
				return false
			}
			if c != end {
				if end == '}' {
					if _, ok := r.key(); !ok {
						return false
					}
				}
				continue
			}
			r.pos++
			depth--
		case c == '"':
			if _, ok := r.str(); !ok {
				return false
			}
		case c == 't':
			if !r.literal("true") {
				return false
			}
		case c == 'f':
			if !r.literal("false") {
				return false
			}
		case c == 'n':
			if !r.literal("null") {
				return false
			}
		case c == '-' || isDigit(c):
			if _, ok := r.number(); !ok {
				return false
			}
		default:
			r.invalid("looking for beginning of value")
			return false
		}
		// After a value: close what ends here, or step to the next value.
		for {
			if depth == base {
				return true
			}
			obj := inObject()
			c, ok := r.peek()
			if !ok {
				return false
			}
			if c == ',' {
				r.pos++
				if obj {
					if _, ok := r.key(); !ok {
						return false
					}
				}
				break
			}
			if obj && c == '}' || !obj && c == ']' {
				r.pos++
				depth--
				continue
			}
			if obj {
				r.invalid("after object key:value pair")
			} else {
				r.invalid("after array element")
			}
			return false
		}
	}
}

// stringValue reads a value bound for a string field. A string is
// returned unquoted with set=true; null leaves the field as it is; any
// other value is a type mismatch.
func (r *reader) stringValue(depth int, field string) (s []byte, set bool) {
	c, ok := r.peek()
	switch {
	case !ok:
	case c == '"':
		return r.str()
	case c == 'n':
		r.literal("null")
	default:
		r.mismatch(c, depth, field, "string")
	}
	return nil, false
}

// intValue reads a value bound for an integer field of the given bit
// size: an integral number in range, or null (set=false).
func (r *reader) intValue(depth int, field, goType string, bits int) (n int64, set bool) {
	c, ok := r.peek()
	switch {
	case !ok:
	case c == '-' || isDigit(c):
		num, ok := r.number()
		if !ok {
			return 0, false
		}
		n, err := strconv.ParseInt(string(num), 10, bits)
		if err != nil {
			r.wrongType("number "+string(num), field, goType)
			return 0, false
		}
		return n, true
	case c == 'n':
		r.literal("null")
	default:
		r.mismatch(c, depth, field, goType)
	}
	return 0, false
}

// floatValue reads a value bound for a float64 field: a number in range,
// or null (set=false).
func (r *reader) floatValue(depth int, field string) (f float64, set bool) {
	c, ok := r.peek()
	switch {
	case !ok:
	case c == '-' || isDigit(c):
		num, ok := r.number()
		if !ok {
			return 0, false
		}
		f, err := strconv.ParseFloat(string(num), 64)
		if err != nil {
			r.wrongType("number "+string(num), field, "float64")
			return 0, false
		}
		return f, true
	case c == 'n':
		r.literal("null")
	default:
		r.mismatch(c, depth, field, "float64")
	}
	return 0, false
}

// boolValue reads a value bound for a bool field: true, false or null;
// anything else is a type mismatch.
func (r *reader) boolValue(depth int, field string) {
	c, ok := r.peek()
	switch {
	case !ok:
	case c == 't':
		r.literal("true")
	case c == 'f':
		r.literal("false")
	case c == 'n':
		r.literal("null")
	default:
		r.mismatch(c, depth, field, "bool")
	}
}

// top starts the first value of the body, which decodes into a struct of
// goType. It returns true with the '{' consumed when an object starts.
// Otherwise it reads the whole value: null decodes to nothing, anything
// else is a type mismatch. atEnd says whether data holds the whole body: a
// scalar at the top ends only at the byte after it, so without one the
// value is incomplete unless nothing follows.
func (r *reader) top(atEnd bool, goType string) bool {
	c, ok := r.peek()
	if !ok {
		return false
	}
	switch {
	case c == '{':
		r.pos++
		return true
	case c == '[':
		r.mismatch(c, 0, "body", goType)
		return false
	}
	if !r.skip(0) {
		return false
	}
	if r.pos >= len(r.data) && !atEnd {
		r.incomplete()
		return false
	}
	if c != 'n' {
		r.wrongType(jsonKind(c), "body", goType)
	}
	return false
}

// requestErr is the outcome of a request decode in json.Decoder's terms.
// atEnd: data is the whole body, so running out of it is io.EOF (nothing
// but whitespace came) or io.ErrUnexpectedEOF. Otherwise running out is
// errIncomplete, and the caller reports the read error that cut the body.
func (r *reader) requestErr(atEnd bool) error {
	if r.err == errIncomplete && atEnd {
		for _, c := range r.data {
			if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
				return io.ErrUnexpectedEOF
			}
		}
		return io.EOF
	}
	if r.err != nil {
		return r.err
	}
	return r.typeErr
}

// fieldSet is a struct's JSON keys. A key picks its field as in
// encoding/json: by exact name first, then by case-folded name.
type fieldSet struct{ names, folded []string }

func newFieldSet(names ...string) fieldSet {
	fs := fieldSet{names: names}
	for _, n := range names {
		fs.folded = append(fs.folded, string(foldName([]byte(n))))
	}
	return fs
}

// index returns the field key names, or -1 for an unknown key.
func (fs *fieldSet) index(key []byte) int {
	for i, n := range fs.names {
		if string(key) == n {
			return i
		}
	}
	folded := foldName(key)
	for i, n := range fs.folded {
		if string(folded) == n {
			return i
		}
	}
	return -1
}

// foldName is encoding/json's key fold: ASCII letters to upper case, any
// other rune to the smallest rune of its case-fold orbit (so ſ matches s
// and the Kelvin sign matches k).
func foldName(in []byte) []byte {
	var arr [32]byte
	out := arr[:0]
	for i := 0; i < len(in); {
		if c := in[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(in[i:])
		out = utf8.AppendRune(out, foldRune(r))
		i += n
	}
	return out
}

func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

var (
	queryRequestFields = newFieldSet("query", "timeout")
	batchRequestFields = newFieldSet("queries", "timeout")
)

// decodeQueryRequest decodes a POST /v1/query body as json.Decoder.Decode
// would into a zero queryRequest. atEnd: data is the whole body (see
// requestErr).
func decodeQueryRequest(data []byte, atEnd bool) (queryRequest, error) {
	var req queryRequest
	r := reader{data: data}
	if r.top(atEnd, "netserve.queryRequest") {
		for first := true; ; first = false {
			key, ok := r.member(first)
			if !ok {
				break
			}
			switch queryRequestFields.index(key) {
			case 0:
				if s, set := r.stringValue(1, "queryRequest.query"); set {
					req.Query = string(s)
				}
			case 1:
				if s, set := r.stringValue(1, "queryRequest.timeout"); set {
					req.Timeout = string(s)
				}
			default:
				r.skip(1)
			}
			if r.err != nil {
				break
			}
		}
	}
	if err := r.requestErr(atEnd); err != nil {
		return queryRequest{}, err
	}
	return req, nil
}

// span locates one decoded query in the arena of decodeBatchRequest.
type span struct{ lo, hi int }

// decodeBatchRequest decodes a POST /v1/query/batch body as
// json.Decoder.Decode would into a zero batchRequest; atEnd as for
// decodeQueryRequest. The queries share one backing string.
//
// The queries array follows reflect's slice decoding to the letter, which
// shows when the key repeats: null sets the slice to nil and [] to a new
// empty one; a longer array reuses the slots a shorter one left behind,
// and a null element keeps whatever its slot held.
func decodeBatchRequest(data []byte, atEnd bool) (batchRequest, error) {
	var req batchRequest
	arena := make([]byte, 0, len(data)) // the unquoted queries, back to back
	var spans []span
	isNil := true
	r := reader{data: data}
	if r.top(atEnd, "netserve.batchRequest") {
		for first := true; ; first = false {
			key, ok := r.member(first)
			if !ok {
				break
			}
			switch batchRequestFields.index(key) {
			case 0:
				c, ok := r.peek()
				switch {
				case !ok:
				case c == 'n':
					if r.literal("null") {
						spans, isNil = nil, true
					}
				case c == '[':
					r.pos++
					i := 0
					for first := true; r.element(first); first = false {
						if i == len(spans) {
							if i < cap(spans) {
								spans = spans[:i+1]
							} else {
								spans = append(spans, span{})
							}
						}
						if s, set := r.stringValue(2, "batchRequest.queries"); set {
							lo := len(arena)
							arena = append(arena, s...)
							spans[i] = span{lo, len(arena)}
						}
						if r.err != nil {
							break
						}
						i++
					}
					if i == 0 {
						spans = nil
					}
					spans, isNil = spans[:i], false
				default:
					r.mismatch(c, 1, "batchRequest.queries", "[]string")
				}
			case 1:
				if s, set := r.stringValue(1, "batchRequest.timeout"); set {
					req.Timeout = string(s)
				}
			default:
				r.skip(1)
			}
			if r.err != nil {
				break
			}
		}
	}
	if err := r.requestErr(atEnd); err != nil {
		return batchRequest{}, err
	}
	if !isNil {
		all := string(arena)
		req.Queries = make([]string, len(spans))
		for i, sp := range spans {
			req.Queries[i] = all[sp.lo:sp.hi]
		}
	}
	return req, nil
}

// ---- Client-side reply decoding ----

var (
	batchReplyFields = newFieldSet("results")
	// The first six are queryResponse's keys, all nine batchItem's.
	itemFields = newFieldSet("query", "phrase", "shard", "round", "slots", "latency_ns", "error", "retryable", "code")
	slotFields = newFieldSet("slot", "advertiser", "price_paid")
)

// slotRange locates one item's slots in replyDecoder.slots; set=false is
// a nil slice (no slots key, or null).
type slotRange struct {
	lo, hi int
	set    bool
}

// replyItem is one decoded reply item before its slots move out of the
// scratch.
type replyItem struct {
	phrase, shard, round int
	latency              int64
	slots                slotRange
	err                  string
	code                 int
}

// failed is the client's rule for a failed batch item.
func (it *replyItem) failed() bool { return it.err != "" || it.code != 0 }

// replyDecoder decodes the client's view of query-path replies. The
// scratch slices are reused across replies through replyPool.
type replyDecoder struct {
	r     reader
	slots []core.SlotResult
	items []replyItem
}

var replyPool = sync.Pool{New: func() any { return new(replyDecoder) }}

func getReplyDecoder(data []byte) *replyDecoder {
	d := replyPool.Get().(*replyDecoder)
	d.r = reader{data: data, scratch: d.r.scratch[:0]}
	d.slots, d.items = d.slots[:0], d.items[:0]
	return d
}

func putReplyDecoder(d *replyDecoder) {
	d.r.data = nil
	clear(d.items) // drop the error strings
	if cap(d.slots) <= maxPooledBuf/24 && cap(d.items) <= maxPooledBuf/64 && cap(d.r.scratch) <= maxPooledBuf {
		replyPool.Put(d)
	}
}

// echoes reports whether s, an unquoted query echo, is q after a JSON
// round trip, which turns each byte of invalid UTF-8 into U+FFFD.
func echoes(s []byte, q string) bool {
	if string(s) == q {
		return true
	}
	j := 0
	for i := 0; i < len(q); {
		c, size := utf8.DecodeRuneInString(q[i:])
		want := q[i : i+size]
		if c == utf8.RuneError && size == 1 {
			want = "\uFFFD"
		}
		if len(s)-j < len(want) || string(s[j:j+len(want)]) != want {
			return false
		}
		i, j = i+size, j+len(want)
	}
	return j == len(s)
}

// item decodes the members of a reply item object (its '{' consumed) at
// nesting depth depth. want is the query it must echo, when check is set;
// batch enables batchItem's error, retryable and code keys.
func (d *replyDecoder) item(depth int, want string, check, batch bool, it *replyItem) {
	r := &d.r
	slotsSeen := false
	for first := true; ; first = false {
		key, ok := r.member(first)
		if !ok {
			return
		}
		idx := itemFields.index(key)
		if !batch && idx >= 6 {
			idx = -1
		}
		switch idx {
		case 0:
			if s, set := r.stringValue(depth, "query"); set && check && !echoes(s, want) {
				r.syntax("reply item echoes another query")
			}
		case 1:
			if n, set := r.intValue(depth, "phrase", "int", strconv.IntSize); set {
				it.phrase = int(n)
			}
		case 2:
			if n, set := r.intValue(depth, "shard", "int", strconv.IntSize); set {
				it.shard = int(n)
			}
		case 3:
			if n, set := r.intValue(depth, "round", "int", strconv.IntSize); set {
				it.round = int(n)
			}
		case 4:
			if slotsSeen {
				r.syntax("repeated slots key")
				return
			}
			slotsSeen = true
			d.slotArray(depth, &it.slots)
		case 5:
			if n, set := r.intValue(depth, "latency_ns", "int64", 64); set {
				it.latency = n
			}
		case 6:
			if s, set := r.stringValue(depth, "error"); set {
				it.err = string(s)
			}
		case 7: // the client retries by error, not by this flag
			r.boolValue(depth, "retryable")
		case 8:
			if n, set := r.intValue(depth, "code", "int", strconv.IntSize); set {
				it.code = int(n)
			}
		default:
			r.skip(depth)
		}
		if r.failed() {
			return
		}
	}
}

// slotArray decodes the value of an item's slots key (the item at depth).
func (d *replyDecoder) slotArray(depth int, rg *slotRange) {
	r := &d.r
	c, ok := r.peek()
	switch {
	case !ok:
	case c == 'n':
		if r.literal("null") {
			*rg = slotRange{}
		}
	case c == '[':
		r.pos++
		lo := len(d.slots)
		for first := true; r.element(first); first = false {
			var s core.SlotResult
			switch c, ok := r.peek(); {
			case !ok:
			case c == '{':
				r.pos++
				d.slot(depth+2, &s)
			case c == 'n':
				r.literal("null")
			default:
				r.mismatch(c, depth+1, "slots", "core.SlotResult")
			}
			if r.failed() {
				return
			}
			d.slots = append(d.slots, s)
		}
		*rg = slotRange{lo: lo, hi: len(d.slots), set: true}
	default:
		r.mismatch(c, depth, "slots", "[]core.SlotResult")
	}
}

// slot decodes the members of one slot object (its '{' consumed).
func (d *replyDecoder) slot(depth int, s *core.SlotResult) {
	r := &d.r
	for first := true; ; first = false {
		key, ok := r.member(first)
		if !ok {
			return
		}
		switch slotFields.index(key) {
		case 0:
			if n, set := r.intValue(depth, "slot", "int", strconv.IntSize); set {
				s.Slot = int(n)
			}
		case 1:
			if n, set := r.intValue(depth, "advertiser", "int", strconv.IntSize); set {
				s.Advertiser = int(n)
			}
		case 2:
			if f, set := r.floatValue(depth, "price_paid"); set {
				s.PricePaid = f
			}
		default:
			r.skip(depth)
		}
		if r.failed() {
			return
		}
	}
}

// object consumes the '{' that must open a reply.
func (d *replyDecoder) object() bool {
	c, ok := d.r.peek()
	if ok && c != '{' {
		d.r.invalid("looking for beginning of reply object")
		return false
	}
	d.r.pos++
	return ok
}

// replyErr is the decode's outcome as a client error.
func (d *replyDecoder) replyErr() error {
	err := d.r.err
	if err == errIncomplete {
		err = io.ErrUnexpectedEOF
	}
	if err == nil {
		err = d.r.typeErr
	}
	if err != nil {
		return fmt.Errorf("netserve: bad reply: %w", err)
	}
	return nil
}

// decodeQueryReply decodes a POST /v1/query reply to query. The slots
// get one array of their own.
func decodeQueryReply(data []byte, query string) (server.Result, error) {
	d := getReplyDecoder(data)
	defer putReplyDecoder(d)
	var it replyItem
	if d.object() {
		d.item(1, query, true, false, &it)
	}
	if err := d.replyErr(); err != nil {
		return server.Result{}, err
	}
	backing := make([]core.SlotResult, len(d.slots))
	copy(backing, d.slots)
	return server.Result{
		Phrase:  it.phrase,
		Shard:   it.shard,
		Round:   it.round,
		Slots:   it.slots.of(backing),
		Latency: time.Duration(it.latency),
	}, nil
}

// of returns the range's slots in backing, capped so an append by the
// caller cannot run into the next item's.
func (rg slotRange) of(backing []core.SlotResult) []core.SlotResult {
	if !rg.set {
		return nil
	}
	return backing[rg.lo:rg.hi:rg.hi]
}

// decodeBatchReply decodes a POST /v1/query/batch reply to queries: one
// result per query, and errs[i] set for each item that failed (errs is
// nil when none did). All items' slots share one array.
func decodeBatchReply(data []byte, queries []string) (results []server.Result, errs []error, err error) {
	d := getReplyDecoder(data)
	defer putReplyDecoder(d)
	r := &d.r
	n := 0 // items in the reply
	if d.object() {
		resultsSeen := false
		for first := true; ; first = false {
			key, ok := r.member(first)
			if !ok {
				break
			}
			if batchReplyFields.index(key) != 0 {
				r.skip(1)
				continue
			}
			if resultsSeen {
				r.syntax("repeated results key")
				break
			}
			resultsSeen = true
			c, ok := r.peek()
			switch {
			case !ok:
			case c == 'n':
				r.literal("null")
			case c == '[':
				r.pos++
				for first := true; r.element(first); first = false {
					var it replyItem
					switch c, ok := r.peek(); {
					case !ok:
					case c == '{':
						r.pos++
						var want string
						if n < len(queries) {
							want = queries[n]
						}
						d.item(3, want, n < len(queries), true, &it)
					case c == 'n':
						r.literal("null")
					default:
						r.mismatch(c, 2, "results", "netserve.batchItem")
					}
					if r.failed() {
						break
					}
					if n < len(queries) {
						d.items = append(d.items, it)
					}
					n++
				}
			default:
				r.mismatch(c, 1, "results", "[]netserve.batchItem")
			}
			if r.failed() {
				break
			}
		}
	}
	if err := d.replyErr(); err != nil {
		return nil, nil, err
	}
	if n != len(queries) {
		return nil, nil, fmt.Errorf("netserve: batch reply has %d items, want %d", n, len(queries))
	}
	results = make([]server.Result, len(queries))
	backing := make([]core.SlotResult, len(d.slots))
	copy(backing, d.slots)
	for i := range d.items {
		it := &d.items[i]
		if it.failed() {
			if errs == nil {
				errs = make([]error, len(queries))
			}
			errs[i] = statusErr(it.code, it.err)
			continue
		}
		results[i] = server.Result{
			Phrase:  it.phrase,
			Shard:   it.shard,
			Round:   it.round,
			Slots:   it.slots.of(backing),
			Latency: time.Duration(it.latency),
		}
	}
	return results, errs, nil
}
