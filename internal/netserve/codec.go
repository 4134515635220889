package netserve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"sharedwd/internal/core"
	"sharedwd/internal/server"
)

// The query path's JSON codec. /v1/query and /v1/query/batch carry the
// schema of the request and response structs in handlers.go, but encode it
// by hand, appending into reused buffers: reflection JSON cost more CPU per
// batch than the auctions it carried.
//
// The encoders write exactly the bytes json.NewEncoder(w).Encode writes for
// the same struct, trailing newline included. Each decoder first runs a
// matcher for exactly what its encoder writes when every string is plain
// ASCII, the traffic of every client built on this package; any other byte
// sequence goes to encoding/json. So a request decodes as json.Decoder.Decode
// decodes it, with the same values and errors. A reply decodes as
// encoding/json decodes it, and the client then requires one item per query
// and, in each item, a query key that echoes its query.
// FuzzHTTPBody and FuzzHTTPReply hold both halves against encoding/json.
//
// Queries that match the same phrase in one resolve share one slot list,
// so a batch reply carries each list several times. The batch encoder
// writes each distinct list once per reply and copies its bytes for the
// repeats (slotMemo), and the reply matcher parses each distinct array
// once and copies its slots (matcher.seen). Bytes and decoded values are
// what they would be without either.

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

// slotMemoSize bounds the distinct slot lists one reply remembers, on the
// encoder's stack and in the client's matcher; the lists past it are
// encoded and parsed as if it were not there.
const slotMemoSize = 32

// slotMemo remembers where in one reply each distinct slot list's array
// was written, so that a repeat copies those bytes instead of formatting
// the prices again. A list is known by its memory: the span copySlots
// handed out for a phrase is shared by every query that matched it and
// never written again, so the same element 0 and length mean the same
// bytes, whatever the prices are (NaN, -0 and near-equal ones included).
type slotMemo struct {
	n    int
	span [slotMemoSize]struct {
		first  *core.SlotResult
		len    int
		lo, hi int // dst[lo:hi] is the array's bytes
	}
}

// appendItem appends encoding/json's bytes for one batchItem, omitempty
// fields left out when zero, and its slot array through m.
func (m *slotMemo) appendItem(dst []byte, it *batchItem) ([]byte, bool) {
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
		if dst, ok = m.appendSlots(append(dst, `,"slots":`...), it.Slots); !ok {
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

// appendSlots appends the non-empty slots: a copy of the bytes written for
// the same list earlier in dst, or appendSlots's. A list appendSlots
// refuses fails the whole reply, so its entry is never read.
func (m *slotMemo) appendSlots(dst []byte, slots []core.SlotResult) ([]byte, bool) {
	first := &slots[0]
	for _, sp := range m.span[:m.n] {
		if sp.first == first && sp.len == len(slots) {
			return append(dst, dst[sp.lo:sp.hi]...), true
		}
	}
	lo := len(dst)
	dst, ok := appendSlots(dst, slots)
	if m.n < len(m.span) {
		sp := &m.span[m.n]
		sp.first, sp.len, sp.lo, sp.hi = first, len(slots), lo, len(dst)
		m.n++
	}
	return dst, ok
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
// answers queries with results and errs, item by item, each distinct slot
// list formatted once.
func appendBatchReply(dst []byte, queries []string, results []server.Result, errs []error) ([]byte, bool) {
	var memo slotMemo
	dst = append(dst, `{"results":[`...)
	for i, q := range queries {
		if i > 0 {
			dst = append(dst, ',')
		}
		item := batchItemFor(q, &results[i], errs[i])
		var ok bool
		if dst, ok = memo.appendItem(dst, &item); !ok {
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

// matcher walks bytes that one of the encoders above may have written. Its
// methods consume one token in the encoder's form; the first token that is
// not there fails the match for good, and every later call is a no-op.
type matcher struct {
	data   []byte
	pos    int
	failed bool

	// seen[:nSeen] are the slot arrays item has parsed, the latest one
	// per (phrase, shard, round). An entry a failed match leaves is never
	// read: the matcher is discarded.
	nSeen int
	seen  [slotMemoSize]parsedSlots
}

// parsedSlots is a slot array a reply matcher parsed: data[lo:hi], in an
// item with this phrase, shard and round, decoded into scratch[slo:shi].
type parsedSlots struct {
	phrase, shard, round int
	lo, hi, slo, shi     int
}

func (m *matcher) fail() { m.failed = true }

// next consumes s if it comes next.
func (m *matcher) next(s string) bool {
	if m.failed || len(m.data)-m.pos < len(s) || string(m.data[m.pos:m.pos+len(s)]) != s {
		return false
	}
	m.pos += len(s)
	return true
}

// expect consumes s, or fails the match.
func (m *matcher) expect(s string) {
	if !m.next(s) {
		m.fail()
	}
}

// plain[c] reports whether byte c stands for itself in a plain string: a
// string that encoding/json reads as the bytes between its quotes, with
// no escape, no control character, and ASCII only.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str consumes a plain string and returns the bytes between its quotes.
func (m *matcher) str() []byte {
	if !m.next(`"`) {
		m.fail()
		return nil
	}
	i := m.pos
	for i < len(m.data) && plain[m.data[i]] {
		i++
	}
	if i == len(m.data) || m.data[i] != '"' {
		m.fail()
		return nil
	}
	s := m.data[m.pos:i]
	m.pos = i + 1
	return s
}

func skipDigits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// number consumes a token of JSON's number grammar.
func (m *matcher) number() []byte {
	if m.failed {
		return nil
	}
	d, i := m.data, m.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = skipDigits(d, i+1)
	default:
		m.fail()
		return nil
	}
	if i < len(d) && d[i] == '.' {
		j := skipDigits(d, i+1)
		if j == i+1 {
			m.fail()
			return nil
		}
		i = j
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		j := skipDigits(d, i)
		if j == i {
			m.fail()
			return nil
		}
		i = j
	}
	tok := d[m.pos:i]
	m.pos = i
	return tok
}

// int consumes a number that is an integer of the given bit size.
func (m *matcher) int(bits int) int64 {
	tok := m.number()
	if m.failed {
		return 0
	}
	n, err := strconv.ParseInt(string(tok), 10, bits)
	if err != nil {
		m.fail()
	}
	return n
}

// optInt consumes key and the integer after it when key comes next; an
// absent key reads as 0, the field's zero value.
func (m *matcher) optInt(key string, bits int) int64 {
	if !m.next(key) {
		return 0
	}
	return m.int(bits)
}

// float consumes a number that is a finite float64.
func (m *matcher) float() float64 {
	tok := m.number()
	if m.failed {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		m.fail()
	}
	return f
}

// decodeJSON decodes data into v as json.Decoder.Decode decodes a body it
// reads itself, data being what was read and rerr the read error that ended
// it (nil: the body ended). A value that rerr cut short fails with rerr,
// so the body bound's *http.MaxBytesError comes back where it stopped one.
func decodeJSON(data []byte, rerr error, v any) error {
	var r io.Reader = bytes.NewReader(data)
	if rerr != nil {
		r = io.MultiReader(r, errReader{rerr})
	}
	return json.NewDecoder(r).Decode(v)
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// matchQueryRequest matches appendQueryRequest's bytes for a plain query.
func matchQueryRequest(data []byte) (queryRequest, bool) {
	m := matcher{data: data}
	m.expect(`{"query":`)
	q := m.str()
	m.expect("}")
	if m.failed {
		return queryRequest{}, false
	}
	return queryRequest{Query: string(q)}, true
}

// matchBatchRequest matches appendBatchRequest's bytes for a non-nil slice
// of plain queries. The queries share one string copied out of data.
func matchBatchRequest(data []byte) (batchRequest, bool) {
	m := matcher{data: data}
	m.expect(`{"queries":[`)
	if m.next("]}") {
		return batchRequest{Queries: []string{}}, true
	}
	lo := m.pos
	for m.str(); m.next(","); {
		m.str()
	}
	hi := m.pos
	m.expect("]}")
	if m.failed {
		return batchRequest{}, false
	}
	// A plain string holds no quote, so `","` occurs only between two.
	return batchRequest{Queries: strings.Split(string(data[lo+1:hi-1]), `","`)}, true
}

// decodeQueryRequest decodes a POST /v1/query body as json.Decoder.Decode
// decodes it into a zero queryRequest; data and rerr as for decodeJSON.
func decodeQueryRequest(data []byte, rerr error) (queryRequest, error) {
	if req, ok := matchQueryRequest(data); ok {
		return req, nil
	}
	var req queryRequest
	err := decodeJSON(data, rerr, &req)
	return req, err
}

// decodeBatchRequest decodes a POST /v1/query/batch body as
// json.Decoder.Decode decodes it into a zero batchRequest; data and rerr as
// for decodeJSON.
func decodeBatchRequest(data []byte, rerr error) (batchRequest, error) {
	if req, ok := matchBatchRequest(data); ok {
		return req, nil
	}
	var req batchRequest
	err := decodeJSON(data, rerr, &req)
	return req, err
}

// ---- Client-side reply decoding ----

// slotPool holds the scratch arrays the reply matchers collect slots in.
var slotPool = sync.Pool{New: func() any { return new([]core.SlotResult) }}

func putSlots(s *[]core.SlotResult) {
	if cap(*s) <= maxPooledBuf/24 {
		*s = (*s)[:0]
		slotPool.Put(s)
	}
}

// item matches one reply item that echoes q: appendBatchItem's bytes when
// batch is set, else appendQueryResponse's (newline aside). The item's
// slots are appended to *scratch, and res.Slots aliases them until relink.
// A failed batch item returns its code and message.
func (m *matcher) item(q string, batch bool, res *server.Result, scratch *[]core.SlotResult) (code int, msg []byte) {
	m.expect(`{"query":`)
	if string(m.str()) != q {
		m.fail()
	}
	res.Phrase = int(m.optInt(`,"phrase":`, strconv.IntSize))
	res.Shard = int(m.optInt(`,"shard":`, strconv.IntSize))
	res.Round = int(m.optInt(`,"round":`, strconv.IntSize))
	if m.next(`,"slots":`) {
		res.Slots = m.slots(res, scratch)
	}
	res.Latency = time.Duration(m.optInt(`,"latency_ns":`, 64))
	if batch {
		if m.next(`,"error":`) {
			msg = m.str()
		}
		m.next(`,"retryable":true`) // the client retries by error, not by this flag
		code = int(m.optInt(`,"code":`, strconv.IntSize))
	}
	m.expect("}")
	return code, msg
}

// slots matches the slot array of the item that res has read so far,
// appending its slots to *scratch. An array whose bytes an earlier item
// with the same phrase, shard and round carried is not parsed again: its
// slots are copied from that item's. A slot array holds no inner ], so
// equal bytes are the same array.
func (m *matcher) slots(res *server.Result, scratch *[]core.SlotResult) []core.SlotResult {
	lo := len(*scratch)
	var prev *parsedSlots
	for i := range m.seen[:m.nSeen] {
		if p := &m.seen[i]; p.phrase == res.Phrase && p.shard == res.Shard && p.round == res.Round {
			prev = p
			break
		}
	}
	if prev != nil && !m.failed && bytes.HasPrefix(m.data[m.pos:], m.data[prev.lo:prev.hi]) {
		m.pos += prev.hi - prev.lo
		*scratch = append(*scratch, (*scratch)[prev.slo:prev.shi]...)
		return (*scratch)[lo:]
	}
	start := m.pos
	m.expect("[")
	if m.next("]") {
		return []core.SlotResult{} // [] decodes to an empty slice, not nil
	}
	for {
		m.expect(`{"slot":`)
		s := core.SlotResult{Slot: int(m.int(strconv.IntSize))}
		m.expect(`,"advertiser":`)
		s.Advertiser = int(m.int(strconv.IntSize))
		m.expect(`,"price_paid":`)
		s.PricePaid = m.float()
		m.expect("}")
		*scratch = append(*scratch, s)
		if !m.next(",") {
			break
		}
	}
	m.expect("]")
	if prev == nil && m.nSeen < len(m.seen) {
		prev = &m.seen[m.nSeen]
		m.nSeen++
	}
	if prev != nil {
		*prev = parsedSlots{res.Phrase, res.Shard, res.Round, start, m.pos, lo, len(*scratch)}
	}
	return (*scratch)[lo:]
}

// forget drops the parsed arrays whose slots lie past scratch[:lo], which
// a failed item has just cut from scratch.
func (m *matcher) forget(lo int) {
	n := 0
	for _, p := range m.seen[:m.nSeen] {
		if p.shi <= lo {
			m.seen[n] = p
			n++
		}
	}
	m.nSeen = n
}

// relink moves the slots of results, which alias scratch in order, into
// one array of their own. Each item's slice is capped, so an append by the
// caller cannot run into the next item's.
func relink(results []server.Result, scratch []core.SlotResult) {
	backing := make([]core.SlotResult, len(scratch))
	copy(backing, scratch)
	off := 0
	for i := range results {
		if s := results[i].Slots; s != nil {
			n := len(s)
			results[i].Slots = backing[off : off+n : off+n]
			off += n
		}
	}
}

// matchQueryReply matches appendQueryResponse's bytes for a reply to query.
func matchQueryReply(data []byte, query string, scratch *[]core.SlotResult) (server.Result, bool) {
	m := matcher{data: data}
	var res [1]server.Result
	m.item(query, false, &res[0], scratch)
	if m.failed {
		return server.Result{}, false
	}
	relink(res[:], *scratch)
	return res[0], true
}

// matchBatchReply matches appendBatchReply's bytes for a reply to queries.
func matchBatchReply(data []byte, queries []string, scratch *[]core.SlotResult) (results []server.Result, errs []error, ok bool) {
	m := matcher{data: data}
	m.expect(`{"results":[`)
	results = make([]server.Result, len(queries))
	for i, q := range queries {
		if i > 0 {
			m.expect(",")
		}
		lo := len(*scratch)
		code, msg := m.item(q, true, &results[i], scratch)
		if m.failed {
			return nil, nil, false
		}
		if code != 0 || len(msg) != 0 {
			results[i] = server.Result{}
			*scratch = (*scratch)[:lo]
			m.forget(lo)
			if errs == nil {
				errs = make([]error, len(queries))
			}
			errs[i] = statusErr(code, string(msg))
		}
	}
	m.expect("]}")
	if m.failed {
		return nil, nil, false
	}
	relink(results, *scratch)
	return results, errs, true
}

// The reply fallback decodes into the wire structs with the query echo as
// a pointer, so that a missing echo is told from an empty one.
type (
	queryResponseEcho struct {
		queryResponse
		Query *string `json:"query"`
	}
	batchItemEcho struct {
		batchItem
		Query *string `json:"query"`
	}
)

// echoes reports whether echo, the decoded query echo, is q after a JSON
// round trip, which turns each byte of invalid UTF-8 into U+FFFD.
func echoes(echo *string, q string) bool {
	if echo == nil {
		return false
	}
	s := *echo
	if s == q {
		return true
	}
	j := 0
	for i := 0; i < len(q); {
		c, size := utf8.DecodeRuneInString(q[i:])
		want := q[i : i+size]
		if c == utf8.RuneError && size == 1 {
			want = "\uFFFD"
		}
		if len(s)-j < len(want) || s[j:j+len(want)] != want {
			return false
		}
		i, j = i+size, j+len(want)
	}
	return j == len(s)
}

// result is the client's view of one answered reply item.
func result(phrase, shard, round int, slots []core.SlotResult, latencyNS int64) server.Result {
	return server.Result{
		Phrase:  phrase,
		Shard:   shard,
		Round:   round,
		Slots:   slots[:len(slots):len(slots)],
		Latency: time.Duration(latencyNS),
	}
}

func badReply(err error) error { return fmt.Errorf("netserve: bad reply: %w", err) }

var errEcho = errors.New("reply item does not echo its query")

// decodeQueryReply decodes a POST /v1/query reply to query as
// encoding/json decodes it, and requires the reply to echo query.
func decodeQueryReply(data []byte, query string) (server.Result, error) {
	scratch := slotPool.Get().(*[]core.SlotResult)
	res, ok := matchQueryReply(data, query, scratch)
	putSlots(scratch)
	if ok {
		return res, nil
	}
	var qr queryResponseEcho
	if err := decodeJSON(data, nil, &qr); err != nil {
		return server.Result{}, badReply(err)
	}
	if !echoes(qr.Query, query) {
		return server.Result{}, badReply(errEcho)
	}
	return result(qr.Phrase, qr.Shard, qr.Round, qr.Slots, qr.LatencyNS), nil
}

// decodeBatchReply decodes a POST /v1/query/batch reply to queries as
// encoding/json decodes it, and requires one item per query, each echoing
// its query. It returns one result per query, and errs[i] set for each
// item that failed (errs is nil when none did).
func decodeBatchReply(data []byte, queries []string) (results []server.Result, errs []error, err error) {
	scratch := slotPool.Get().(*[]core.SlotResult)
	results, errs, ok := matchBatchReply(data, queries, scratch)
	putSlots(scratch)
	if ok {
		return results, errs, nil
	}
	var br struct {
		Results []batchItemEcho `json:"results"`
	}
	if err := decodeJSON(data, nil, &br); err != nil {
		return nil, nil, badReply(err)
	}
	if len(br.Results) != len(queries) {
		return nil, nil, fmt.Errorf("netserve: batch reply has %d items, want %d", len(br.Results), len(queries))
	}
	results = make([]server.Result, len(queries))
	for i := range br.Results {
		it := &br.Results[i]
		if !echoes(it.Query, queries[i]) {
			return nil, nil, badReply(errEcho)
		}
		if it.Error != "" || it.Code != 0 {
			if errs == nil {
				errs = make([]error, len(queries))
			}
			errs[i] = statusErr(it.Code, it.Error)
			continue
		}
		results[i] = result(it.Phrase, it.Shard, it.Round, it.Slots, it.LatencyNS)
	}
	return results, errs, nil
}
