package netserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"sharedwd/internal/core"
	"sharedwd/internal/serr"
	"sharedwd/internal/server"
	"sharedwd/internal/workload"
)

// encodeJSON is the reference encoder: what the handlers wrote when they
// called json.NewEncoder(w).Encode.
func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatalf("json.Encode(%#v): %v", v, err)
	}
	return b.Bytes()
}

// oddStrings exercise every branch of appendString.
var oddStrings = []string{
	"", "hiking boots", `quote " and \ backslash`, "<b>&amp;</b>", "tab\tnl\nret\rbs\bff\f",
	"\x00\x01\x1f\x7f", "line\u2028para\u2029", "bad \xff utf8 \xe2\x82", "\xed\xa0\x80 surrogate",
	"ünïcödé 日本語 🎉", "\ufffd already", "ſ and \u212a",
}

// oddFloats exercise both of appendFloat's formats and the exponent cleanup.
var oddFloats = []float64{
	0, math.Copysign(0, -1), 1, -1.25, 0.1, 1e-6, 9.99e-7, 1e-7, 1.5e-300, 1e20, 1e21, -1e21,
	123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64, 5e-324, 1 / 3.0,
}

func TestReplyBytesMatchEncodingJSON(t *testing.T) {
	var slots []core.SlotResult
	for i, f := range oddFloats {
		slots = append(slots, core.SlotResult{Slot: i, Advertiser: -i * 1000003, PricePaid: f})
	}
	for _, q := range oddStrings {
		for _, s := range [][]core.SlotResult{nil, {}, slots} {
			qr := queryResponse{Query: q, Phrase: 7, Shard: -1, Round: math.MaxInt, Slots: s, LatencyNS: math.MinInt64}
			got, ok := appendQueryResponse(nil, &qr)
			if want := encodeJSON(t, &qr); !ok || !bytes.Equal(got, want) {
				t.Fatalf("queryResponse %q:\n got %s\nwant %s", q, got, want)
			}
		}
		items := []batchItem{
			{Query: q},
			{Query: q, Phrase: 1, Shard: 2, Round: 3, Slots: slots, LatencyNS: 4},
			{Query: q, Slots: []core.SlotResult{}, Error: q, Retryable: true, Code: 429},
			{Query: q, Error: "x", Code: -1},
		}
		for i := range items {
			got, ok := appendBatchItem(nil, &items[i])
			want := encodeJSON(t, &items[i])
			if !ok || !bytes.Equal(append(got, '\n'), want) {
				t.Fatalf("batchItem %+v:\n got %s\nwant %s", items[i], got, want)
			}
		}
		if got, want := appendQueryRequest(nil, q), encodeJSON(t, queryRequest{Query: q}); !bytes.Equal(got, want) {
			t.Fatalf("queryRequest %q:\n got %s\nwant %s", q, got, want)
		}
	}
	for _, qs := range [][]string{nil, {}, oddStrings} {
		if got, want := appendBatchRequest(nil, qs), encodeJSON(t, batchRequest{Queries: qs}); !bytes.Equal(got, want) {
			t.Fatalf("batchRequest %q:\n got %s\nwant %s", qs, got, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, ok := appendFloat(nil, f); ok {
			t.Fatalf("appendFloat(%v) ok, want refused as json.Encoder refuses it", f)
		}
	}
}

// TestBatchReplyMatchesOldHandler pins appendBatchReply against the
// batchResponse the handler built and json-encoded item by item.
func TestBatchReplyMatchesOldHandler(t *testing.T) {
	queries := []string{"a", "<b>", "c", "d"}
	results := []server.Result{
		{Phrase: 3, Shard: 1, Round: 9, Slots: []core.SlotResult{{Slot: 0, Advertiser: 4, PricePaid: 0.25}}, Latency: time.Millisecond},
		{},
		{Phrase: 0, Slots: nil},
		{Phrase: 5, Slots: []core.SlotResult{}},
	}
	errs := []error{nil, serr.ErrOverloaded, &serr.QueryError{Shard: 1, Phrase: -1, Err: unclassifiedErr{}}, nil}
	resp := batchResponse{Results: make([]batchItem, len(queries))}
	for i, q := range queries {
		resp.Results[i] = batchItemFor(q, &results[i], errs[i])
	}
	got, ok := appendBatchReply(nil, queries, results, errs)
	if want := encodeJSON(t, resp); !ok || !bytes.Equal(got, want) {
		t.Fatalf("batch reply:\n got %s\nwant %s", got, want)
	}
}

// appendBatchItem appends encoding/json's bytes for one batchItem alone:
// with a memo of its own, its slot array is always formatted.
func appendBatchItem(dst []byte, it *batchItem) ([]byte, bool) {
	var memo slotMemo
	return memo.appendItem(dst, it)
}

// unclassifiedErr is an error submitStatus does not classify.
type unclassifiedErr struct{}

func (unclassifiedErr) Error() string { return "engine exploded" }

// decodeRef is the reference request decoder: what the handlers ran.
func decodeRef[T any](body []byte, limit int64) (T, error) {
	var v T
	var rd io.Reader = bytes.NewReader(body)
	if limit >= 0 {
		rd = http.MaxBytesReader(nil, io.NopCloser(rd), limit)
	}
	err := json.NewDecoder(rd).Decode(&v)
	return v, err
}

// decodeOwn runs a hand decoder the way the handlers run it.
func decodeOwn[T any](body []byte, limit int64, decode func([]byte, error) (T, error)) (T, error) {
	var rd io.Reader = bytes.NewReader(body)
	if limit >= 0 {
		rd = http.MaxBytesReader(nil, io.NopCloser(rd), limit)
	}
	data, rerr := readAll(rd, nil)
	return decode(data, rerr)
}

// maxNestingDepth is encoding/json's bound on nested arrays and objects.
const maxNestingDepth = 10000

// outcome classes a decode error the way the handlers answer it.
func outcome(err error) string {
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &tooLarge):
		return "413"
	}
	return "400"
}

// checkBody holds both hand decoders against encoding/json on one body
// under one bound (-1: none).
func checkBody(t *testing.T, body []byte, limit int64) {
	t.Helper()
	wantQ, errQ := decodeRef[queryRequest](body, limit)
	gotQ, err := decodeOwn(body, limit, decodeQueryRequest)
	if outcome(err) != outcome(errQ) || err == nil && !reflect.DeepEqual(gotQ, wantQ) {
		t.Fatalf("query body %.300q (limit %d):\n got %+v, %v\nwant %+v, %v", body, limit, gotQ, err, wantQ, errQ)
	}
	wantB, errB := decodeRef[batchRequest](body, limit)
	gotB, err := decodeOwn(body, limit, decodeBatchRequest)
	if outcome(err) != outcome(errB) || err == nil && !reflect.DeepEqual(gotB, wantB) {
		t.Fatalf("batch body %.300q (limit %d):\n got %#v, %v\nwant %#v, %v", body, limit, gotB, err, wantB, errB)
	}
}

// bodyCorpus covers the request grammar's corners; it seeds FuzzHTTPBody.
var bodyCorpus = []string{
	``, ` `, `{}`, `null`, ` null `, `nul`, `nullx`, `[]`, `"q"`, `1`, `-`, `1.`, `1e`, `01`, `true`, `tru`,
	`{"query":"hiking boots"}`, `{"query":"boots","timeout":"250ms"}`, `{"query":null}`, `{"query":1}`,
	`{"query":"a"} trailing garbage`, `{"query":"a"}{"query":"b"}`, `{"QUERY":"a"}`, `{"Query":"a","query":"b"}`,
	`{"query":"a","QUERY":"b"}`, `{"qu\u0065ry":"esc"}`, `{"querieſ":["s"]}`, `{"TIMEOUT":"1s"}`,
	`{"query":"\ud83c\udf89 \ud800 \udc00x \u00e9 \/ \b\f\n\r\t \"\\"}`, "{\"query\":\"\xff\xfe\"}",
	"{\"query\":\"ctl\x01\"}", `{"query":"bad \x escape"}`, `{"query":"\u12G4"}`, `{"query":"a",}`,
	`{"query" "a"}`, `{,}`, `{"a":[1,{"b":null},true,false,-0.5e+10,"x"],"query":"q"}`, `{"a":{"b":{"c":[]}}}`,
	`{"queries":["a","b","c"]}`, `{"queries":[]}`, `{"queries":null}`, `{"queries":["a",null,"c"]}`,
	`{"queries":["a",1]}`, `{"queries":"a"}`, `{"queries":{}}`, `{"queries":[["a"]]}`, `{"queries":[,]}`,
	`{"queries":["a","b","c"],"queries":["x"],"queries":[null,null,null,null]}`,
	`{"queries":["a","b"],"queries":[],"queries":[null]}`, `{"queries":["a"],"queries":null,"queries":[null]}`,
	`{"queries":["a","b"],"queries":[null]}`, `{"queries":["a"],"timeout":5}`, `{"query":"a","timeout":null}`,
	`{"query":1e999}`, `{"x":1e999,"query":"ok"}`, `{"x":-01}`, `{"x":1.5e}`, `{"x":[1 2]}`, `{"x":tru}`,
}

func TestRequestDecodeMatchesEncodingJSON(t *testing.T) {
	for _, body := range bodyCorpus {
		for limit := int64(-1); limit <= int64(len(body)); limit++ {
			checkBody(t, []byte(body), limit)
		}
	}
	// Nesting: encoding/json allows 10,000 levels and refuses 10,001.
	for _, depth := range []int{maxNestingDepth - 1, maxNestingDepth} {
		deep := `{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `,"query":"q"}`
		checkBody(t, []byte(deep), -1)
		deep = `{"x":` + strings.Repeat(`{"y":`, depth) + `1` + strings.Repeat("}", depth) + `}`
		checkBody(t, []byte(deep), -1)
	}
}

// TestRequestBodyBound pins the 413 and 400 answers at the body bound: a
// value the bound cuts short is 413, one that is complete before it
// (trailing bytes past the bound included) is served.
func TestRequestBodyBound(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBodyBytes: 32})
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"query":"` + strings.Repeat("x", 40) + `"}`, http.StatusRequestEntityTooLarge},
		{`{"query":"x"}` + strings.Repeat(" ", 40), http.StatusOK},
		{`{"query":1,` + strings.Repeat(" ", 40) + `}`, http.StatusRequestEntityTooLarge},
		{`{"query":!` + strings.Repeat(" ", 40), http.StatusBadRequest},
		{strings.Repeat(" ", 40), http.StatusRequestEntityTooLarge},
		{``, http.StatusBadRequest},
	} {
		if w := postQuery(t, s.Handler(), tc.body, nil); w.Code != tc.want {
			t.Errorf("body %q: status %d, want %d (%s)", tc.body, w.Code, tc.want, w.Body)
		}
	}
}

// FuzzHTTPBody holds the request decoders to encoding/json: on any body,
// under any body bound, a hand decoder accepts if and only if
// json.Decoder does — and answers 413 exactly when the bound stopped
// json.Decoder — with deep-equal values.
func FuzzHTTPBody(f *testing.F) {
	for _, body := range bodyCorpus {
		f.Add([]byte(body), uint16(len(body)))
	}
	f.Fuzz(func(t *testing.T, body []byte, cut uint16) {
		checkBody(t, body, -1)
		checkBody(t, body, int64(int(cut)%(len(body)+1)))
	})
}

// sampleBatch builds a 64-item batch reply's inputs: every item answered
// with four slots, or, when failing is set, every eighth item refused.
func sampleBatch(failing bool) ([]string, []server.Result, []error) {
	queries := make([]string, 64)
	results := make([]server.Result, 64)
	errs := make([]error, 64)
	for i := range queries {
		queries[i] = fmt.Sprintf("Hiking  Boots %d", i)
		slots := make([]core.SlotResult, 4)
		for s := range slots {
			slots[s] = core.SlotResult{Slot: s, Advertiser: 37*i + s, PricePaid: 0.0123 * float64(i+s+1)}
		}
		results[i] = server.Result{Phrase: i % 24, Shard: i % 2, Round: 100000 + i, Slots: slots, Latency: time.Duration(1234567 + i)}
		if failing && i%8 == 0 {
			results[i] = server.Result{}
			errs[i] = serr.ErrNoAuction
		}
	}
	return queries, results, errs
}

// TestBatchCodecAllocs pins the codec's allocations: a 64-item reply
// encodes into a warm buffer with none, and decodes with the results slice
// and the one slot array — plus, when items failed, the error slice and
// each failed item's message.
func TestBatchCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	for _, failing := range []bool{false, true} {
		queries, results, errs := sampleBatch(failing)
		buf := make([]byte, 0, 64<<10)
		if n := testing.AllocsPerRun(100, func() {
			buf, _ = appendBatchReply(buf[:0], queries, results, errs)
		}); n != 0 {
			t.Fatalf("appendBatchReply allocates %.1f/op, want 0", n)
		}
		if n := testing.AllocsPerRun(100, func() {
			buf = appendBatchRequest(buf[:0], queries)
		}); n != 0 {
			t.Fatalf("appendBatchRequest allocates %.1f/op, want 0", n)
		}
		body := appendBatchRequest(nil, queries)
		if n := testing.AllocsPerRun(100, func() {
			if _, err := decodeBatchRequest(body, nil); err != nil {
				t.Fatal(err)
			}
		}); n > 2 {
			t.Fatalf("decodeBatchRequest allocates %.1f/op, want ≤ 2 (the queries' string and slice)", n)
		}
		reply, _ := appendBatchReply(nil, queries, results, errs)
		want := 2.0
		if failing {
			want += 1 + 64/8
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, _, err := decodeBatchReply(reply, queries); err != nil {
				t.Fatal(err)
			}
		}); n > want {
			t.Fatalf("decodeBatchReply (failing items: %v) allocates %.1f/op, want ≤ %.0f", failing, n, want)
		}
	}
}

// TestReplyDecodeRefuses pins what the client's reply decoders refuse
// beyond encoding/json: an item with no query echo or an echo of another
// query, and an item count that is not the batch's. A repeated key is
// read last-wins, as encoding/json reads it, and then fails the echo rule
// here. An echo of invalid UTF-8 is the query as the server read it, with
// U+FFFD for each bad byte.
func TestReplyDecodeRefuses(t *testing.T) {
	queries := []string{"a", "b\xff"}
	for _, tc := range []struct {
		reply string
		ok    bool
	}{
		{`{"results":[{"query":"a"},{"query":"b\ufffd"}]}`, true},
		{`{"results":[{"query":"a"},{"query":"b"}]}`, false},
		{`{"results":[{"query":"b\ufffd"},{"query":"a"}]}`, false},
		{`{"results":[{"query":"a"},{"query":"b\ufffd\ufffd"}]}`, false},
		{`{"results":[{"query":"a"}]}`, false},
		{`{"results":[{"query":"a"},{},{}]}`, false},
		{`{"results":[{},{}],"results":[{},{}]}`, false},
		{`{"results":[{"slots":[],"slots":[]},{}]}`, false},
		{`[]`, false},
		{`null`, false},
		{`{"results":[{"phrase":3},{}]}`, false},
	} {
		_, _, err := decodeBatchReply([]byte(tc.reply), queries)
		if (err == nil) != tc.ok {
			t.Errorf("decodeBatchReply(%s) error = %v, want ok=%v", tc.reply, err, tc.ok)
		}
	}
	if _, err := decodeQueryReply([]byte(`{"query":"x","phrase":1}`), "y"); err == nil {
		t.Error("decodeQueryReply accepted a reply to another query")
	}
	if _, err := decodeQueryReply([]byte(`{"phrase":5}`), "q"); err == nil {
		t.Error("decodeQueryReply accepted a reply with no query echo")
	}
}

// refResults maps a reply onto results and errors the way the client did
// when it decoded with encoding/json.
func refResults(br batchResponse) ([]server.Result, []error) {
	results := make([]server.Result, len(br.Results))
	errs := make([]error, len(br.Results))
	for i, item := range br.Results {
		if item.Error != "" || item.Code != 0 {
			errs[i] = statusErr(item.Code, item.Error)
			continue
		}
		results[i] = server.Result{Phrase: item.Phrase, Shard: item.Shard, Round: item.Round, Slots: item.Slots, Latency: time.Duration(item.LatencyNS)}
	}
	return results, errs
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// checkReplyDecode holds the client's decoders to encoding/json on any
// reply bytes: no panic, and whatever they accept json.Decoder accepts
// with equal values.
func checkReplyDecode(t *testing.T, raw []byte, queries []string) {
	t.Helper()
	if results, errs, err := decodeBatchReply(raw, queries); err == nil {
		var br batchResponse
		if jerr := json.NewDecoder(bytes.NewReader(raw)).Decode(&br); jerr != nil {
			t.Fatalf("batch reply %q accepted; encoding/json refuses it: %v", raw, jerr)
		}
		wantRes, wantErrs := refResults(br)
		if len(results) != len(wantRes) {
			t.Fatalf("batch reply %q: %d results, encoding/json %d", raw, len(results), len(wantRes))
		}
		for i := range wantRes {
			var e error
			if errs != nil {
				e = errs[i]
			}
			if !reflect.DeepEqual(results[i], wantRes[i]) || !sameErr(e, wantErrs[i]) {
				t.Fatalf("batch reply %q item %d:\n got %+v, %v\nwant %+v, %v", raw, i, results[i], e, wantRes[i], wantErrs[i])
			}
		}
	}
	if res, err := decodeQueryReply(raw, queries[0]); err == nil {
		var qr queryResponse
		if jerr := json.NewDecoder(bytes.NewReader(raw)).Decode(&qr); jerr != nil {
			t.Fatalf("query reply %q accepted; encoding/json refuses it: %v", raw, jerr)
		}
		want := server.Result{Phrase: qr.Phrase, Shard: qr.Shard, Round: qr.Round, Slots: qr.Slots, Latency: time.Duration(qr.LatencyNS)}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("query reply %q:\n got %+v\nwant %+v", raw, res, want)
		}
	}
}

// roundTrip is s after a JSON round trip (invalid UTF-8 becomes U+FFFD).
func roundTrip(t *testing.T, s string) string {
	var out string
	if err := json.Unmarshal(encodeJSON(t, s), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// FuzzHTTPReply holds the reply codec to encoding/json. For fuzzed
// queries, integers and finite prices, the encoders write json.Encoder's
// bytes, and the client decoders read the original values back from them.
// On arbitrary bytes the client decoders never panic, and what they accept
// encoding/json accepts with equal values.
func FuzzHTTPReply(f *testing.F) {
	f.Add("hiking boots", 3, 1, 42, int64(3e6), 2, 9, math.Float64bits(1.25), "engine <failed>", 0, 418,
		[]byte(`{"results":[{"query":"a","phrase":1,"slots":[{"slot":0,"advertiser":2,"price_paid":0.5}],"latency_ns":7},{"query":"b","error":"x","code":404}]}`))
	f.Add("", 0, 0, 0, int64(0), 0, 0, math.Float64bits(1e-7), "", 0, 0, []byte(`{"query":"a","phrase":1,"slots":[],"latency_ns":7}`))
	f.Add("\xff<\u2028\u2029>", -1, -2, math.MaxInt, int64(math.MinInt64), -3, -4, math.Float64bits(-1e21), "\x00", 1, 500,
		[]byte(`{"Results":[{"QUERY":"a","Slots":null},null],"results":null}`))
	f.Add("q", 1, 1, 1, int64(1), 1, 1, uint64(1), "e", 2, 503, []byte(`{"results":[{"query":"a","slots":[null,{"Price_Paid":1e400}]},{}]}`))
	// Repeated slot arrays, which the client's slot memo copies instead of
	// parsing: under one key, under one key with the second array longer or
	// one ulp apart, under two keys, and in a failed item whose slots are
	// cut from the scratch (and from the memo) before its key repeats.
	const arr = `[{"slot":0,"advertiser":2,"price_paid":0.5},{"slot":1,"advertiser":3,"price_paid":0.25}]`
	for _, raw := range []string{
		`{"results":[{"query":"a","phrase":1,"round":2,"slots":` + arr + `,"latency_ns":7},{"query":"b","phrase":1,"round":2,"slots":` + arr + `,"latency_ns":8}]}`,
		`{"results":[{"query":"a","phrase":1,"slots":[{"slot":0,"advertiser":2,"price_paid":0.5}]},{"query":"b","phrase":1,"slots":` + arr + `}]}`,
		`{"results":[{"query":"a","shard":1,"slots":` + arr + `},{"query":"b","shard":1,"slots":[{"slot":0,"advertiser":2,"price_paid":0.5},{"slot":1,"advertiser":3,"price_paid":0.25000000000000006}]}]}`,
		`{"results":[{"query":"a","phrase":1,"slots":` + arr + `},{"query":"b","phrase":2,"slots":` + arr + `}]}`,
		`{"results":[{"query":"a","phrase":1,"round":2,"slots":` + arr + `,"error":"x","code":404},{"query":"b","phrase":1,"round":2,"slots":` + arr + `,"latency_ns":3}]}`,
	} {
		f.Add("q", 1, 0, 2, int64(3), 0, 2, math.Float64bits(0.5), "x", 0, 404, []byte(raw))
	}
	f.Fuzz(func(t *testing.T, query string, phrase, shard, round int, latency int64, slot, adv int, priceBits uint64, msg string, retry, code int, raw []byte) {
		price := math.Float64frombits(priceBits)
		if math.IsNaN(price) || math.IsInf(price, 0) {
			price = float64(priceBits >> 12)
		}
		slots := []core.SlotResult{{Slot: slot, Advertiser: adv, PricePaid: price}, {Slot: slot + 1, Advertiser: adv ^ 1, PricePaid: price / 3}}

		// Encoders against json.Encoder.
		qr := queryResponse{Query: query, Phrase: phrase, Shard: shard, Round: round, Slots: slots, LatencyNS: latency}
		single, ok := appendQueryResponse(nil, &qr)
		if want := encodeJSON(t, &qr); !ok || !bytes.Equal(single, want) {
			t.Fatalf("queryResponse:\n got %s\nwant %s", single, want)
		}
		item := batchItem{Query: msg, Phrase: phrase, Shard: shard, Round: round, Slots: slots, LatencyNS: latency, Error: msg, Retryable: retry%2 != 0, Code: code}
		got, ok := appendBatchItem(nil, &item)
		if want := encodeJSON(t, &item); !ok || !bytes.Equal(append(got, '\n'), want) {
			t.Fatalf("batchItem:\n got %s\nwant %s", got, want)
		}
		queries := []string{query, msg, query + "&", ""}
		results := []server.Result{{Phrase: phrase, Shard: shard, Round: round, Slots: slots, Latency: time.Duration(latency)}, {}, {}, {Phrase: 1, Slots: slots[1:]}}
		errs := []error{nil, errors.New(msg), serr.ErrOverloaded, nil}
		batch, ok := appendBatchReply(nil, queries, results, errs)
		resp := batchResponse{Results: make([]batchItem, len(queries))}
		for i, q := range queries {
			resp.Results[i] = batchItemFor(q, &results[i], errs[i])
		}
		if want := encodeJSON(t, resp); !ok || !bytes.Equal(batch, want) {
			t.Fatalf("batch reply:\n got %s\nwant %s", batch, want)
		}
		if got, want := appendBatchRequest(nil, queries), encodeJSON(t, batchRequest{Queries: queries}); !bytes.Equal(got, want) {
			t.Fatalf("batch request:\n got %s\nwant %s", got, want)
		}

		// The client reads the original values back.
		res, err := decodeQueryReply(single, query)
		if want := results[0]; err != nil || !reflect.DeepEqual(res, want) {
			t.Fatalf("decodeQueryReply(%s) = %+v, %v; want %+v", single, res, err, want)
		}
		gotRes, gotErrs, err := decodeBatchReply(batch, queries)
		if err != nil || len(gotRes) != len(queries) || len(gotErrs) != len(queries) {
			t.Fatalf("decodeBatchReply(%s) = %+v, %v, %v", batch, gotRes, gotErrs, err)
		}
		wantErrs := []error{nil, statusErr(http.StatusInternalServerError, roundTrip(t, msg)), serr.ErrOverloaded, nil}
		for i := range results {
			if !reflect.DeepEqual(gotRes[i], results[i]) || !sameErr(gotErrs[i], wantErrs[i]) {
				t.Fatalf("decodeBatchReply item %d = %+v, %v; want %+v, %v", i, gotRes[i], gotErrs[i], results[i], wantErrs[i])
			}
			if slots := gotRes[i].Slots; cap(slots) != len(slots) {
				t.Fatalf("item %d slots have cap %d > len %d: an append would run into the next item's", i, cap(slots), len(slots))
			}
		}

		// Arbitrary bytes.
		checkReplyDecode(t, raw, []string{"a", "b"})
		checkReplyDecode(t, batch, queries)
		checkReplyDecode(t, single, queries)
	})
}

// TestBenchmarkTrafficTakesFastPath runs the matchers alone, with no
// encoding/json to fall back on, over traffic shaped like the
// serve-http-batch benchmark's: QueryStream's phrase variants mixed with
// "zzz no such phrase N" junk in 64-query batches, each item answered with
// 0–5 slots or failed as the server fails items. Every request and reply
// must match and read back its values.
func TestBenchmarkTrafficTakesFastPath(t *testing.T) {
	wcfg := workload.DefaultConfig()
	wcfg.NumAdvertisers, wcfg.NumPhrases = 500, 48
	qs := workload.NewQueryStream(workload.Generate(wcfg), 0, 1)
	rng := rand.New(rand.NewSource(2))
	var queries []string
	for len(queries) < 64*16 {
		for _, q := range qs.Round() {
			if rng.Float64() < 0.05 {
				queries = append(queries, fmt.Sprintf("zzz no such phrase %d", rng.Intn(1<<20)))
			}
			queries = append(queries, q)
		}
	}
	failures := []error{serr.ErrNoAuction, serr.ErrOverloaded, context.DeadlineExceeded}
	scratch := new([]core.SlotResult)
	for lo := 0; lo+64 <= len(queries); lo += 64 {
		batch := queries[lo : lo+64]
		if req, ok := matchBatchRequest(appendBatchRequest(nil, batch)); !ok || !reflect.DeepEqual(req.Queries, batch) {
			t.Fatalf("batch request %q: matched %v, read %q", batch, ok, req.Queries)
		}
		results := make([]server.Result, len(batch))
		errs := make([]error, len(batch))
		for i := range batch {
			if rng.Intn(4) == 0 {
				errs[i] = failures[rng.Intn(len(failures))]
				continue
			}
			var slots []core.SlotResult
			for s := rng.Intn(6); s > 0; s-- {
				slots = append(slots, core.SlotResult{Slot: len(slots), Advertiser: rng.Intn(wcfg.NumAdvertisers), PricePaid: rng.ExpFloat64()})
			}
			results[i] = server.Result{Phrase: rng.Intn(wcfg.NumPhrases), Shard: rng.Intn(2), Round: 1e6 + lo, Slots: slots, Latency: time.Duration(rng.Int63n(1e8))}
		}
		reply, _ := appendBatchReply(nil, batch, results, errs)
		gotRes, gotErrs, ok := matchBatchReply(reply, batch, scratch)
		if !ok {
			t.Fatalf("batch reply not matched: %s", reply)
		}
		for i := range batch {
			var e error
			if gotErrs != nil {
				e = gotErrs[i]
			}
			if e != errs[i] || !reflect.DeepEqual(gotRes[i], results[i]) {
				t.Fatalf("batch reply item %d = %+v, %v; want %+v, %v", i, gotRes[i], e, results[i], errs[i])
			}
		}
		*scratch = (*scratch)[:0]

		for i, q := range batch {
			if req, ok := matchQueryRequest(appendQueryRequest(nil, q)); !ok || req.Query != q {
				t.Fatalf("query request %q: matched %v, read %q", q, ok, req.Query)
			}
			if errs[i] != nil {
				continue // a failed query is answered by writeError, not the codec
			}
			want := results[i]
			if want.Slots == nil {
				want.Slots = []core.SlotResult{} // as handleQuery writes it
			}
			qr := queryResponse{Query: q, Phrase: want.Phrase, Shard: want.Shard, Round: want.Round, Slots: want.Slots, LatencyNS: int64(want.Latency)}
			body, _ := appendQueryResponse(nil, &qr)
			if res, ok := matchQueryReply(body, q, scratch); !ok || !reflect.DeepEqual(res, want) {
				t.Fatalf("query reply %s: matched %v, read %+v", body, ok, res)
			}
			*scratch = (*scratch)[:0]
		}
	}
}

// sharedBatch builds a 64-item batch reply's inputs shaped like
// serve-http-batch's: 64 queries over 19 phrases, each phrase answered with
// four slots in one slab span that every query matching it shares, as
// copySlots hands them out, and one shard and round per phrase.
func sharedBatch() ([]string, []server.Result, []error) {
	const phrases, k = 19, 4
	slab := make([]core.SlotResult, 0, phrases*k)
	for p := 0; p < phrases; p++ {
		for s := 0; s < k; s++ {
			slab = append(slab, core.SlotResult{Slot: s, Advertiser: 37*p + s, PricePaid: 0.0123 * float64(p+s+1)})
		}
	}
	queries := make([]string, 64)
	results := make([]server.Result, 64)
	for i := range queries {
		p := i * 7 % phrases
		queries[i] = fmt.Sprintf("Hiking  Boots %d", i)
		results[i] = server.Result{Phrase: p, Shard: p % 2, Round: 100000 + p%3, Slots: slab[k*p : k*p+k : k*p+k], Latency: time.Duration(1234567 + i)}
	}
	return queries, results, make([]error, 64)
}

// TestBatchCodecAllocsSharedSlots pins the slot memo's hit path: a reply
// whose items share slot spans encodes with no allocation and decodes with
// the results slice and the one slot array, every item's slots its own.
func TestBatchCodecAllocsSharedSlots(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	queries, results, errs := sharedBatch()
	buf := make([]byte, 0, 64<<10)
	if n := testing.AllocsPerRun(100, func() {
		buf, _ = appendBatchReply(buf[:0], queries, results, errs)
	}); n != 0 {
		t.Fatalf("appendBatchReply allocates %.1f/op, want 0", n)
	}
	reply, _ := appendBatchReply(nil, queries, results, errs)
	if want, _ := itemsReply(batchItems(queries, results, errs)); !bytes.Equal(reply, want) {
		t.Fatalf("memoized reply:\n%s\nplain:\n%s", reply, want)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := decodeBatchReply(reply, queries); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Fatalf("decodeBatchReply allocates %.1f/op, want ≤ 2", n)
	}
	got, gotErrs, err := decodeBatchReply(reply, queries)
	if err != nil || gotErrs != nil || !reflect.DeepEqual(got, results) {
		t.Fatalf("decodeBatchReply = %+v, %v, %v; want %+v", got, gotErrs, err, results)
	}
}

// BenchmarkBatchReply times the batch reply codec on sharedBatch's reply:
// the server's encode into a warm buffer and the client's decode.
func BenchmarkBatchReply(b *testing.B) {
	queries, results, errs := sharedBatch()
	reply, _ := appendBatchReply(nil, queries, results, errs)
	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, 2*len(reply))
		b.SetBytes(int64(len(reply)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = appendBatchReply(buf[:0], queries, results, errs)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(reply)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := decodeBatchReply(reply, queries); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// batchItems is the items appendBatchReply writes for queries, results
// and errs.
func batchItems(queries []string, results []server.Result, errs []error) []batchItem {
	items := make([]batchItem, len(queries))
	for i, q := range queries {
		items[i] = batchItemFor(q, &results[i], errs[i])
	}
	return items
}

// itemsReply is the batch reply that carries items, each encoded alone by
// appendBatchItem: what appendBatchReply writes without its memo, or, for
// failed items given slots, what it never writes.
func itemsReply(items []batchItem) ([]byte, bool) {
	dst := []byte(`{"results":[`)
	for i := range items {
		if i > 0 {
			dst = append(dst, ',')
		}
		var ok bool
		if dst, ok = appendBatchItem(dst, &items[i]); !ok {
			return dst, false
		}
	}
	return append(dst, "]}\n"...), true
}

// randomReply builds a batch reply's inputs whose items draw their slot
// lists from a small pool: sub-slices of one shared backing, value-equal
// copies in other backings, near-equal copies one ulp or one advertiser
// apart, and, rarely, -0, NaN and ±Inf prices. Keys repeat too: a list's
// items mostly share its phrase, shard and round, but some take another
// list's. About one item in six fails.
func randomReply(rng *rand.Rand) ([]string, []server.Result, []error) {
	type list struct {
		slots                []core.SlotResult
		phrase, shard, round int
	}
	price := func() float64 {
		switch rng.Intn(200) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1 - 2*rng.Intn(2))
		case 2, 3, 4:
			return math.Copysign(0, -1)
		}
		return oddFloats[rng.Intn(len(oddFloats))] + rng.ExpFloat64()*float64(rng.Intn(2))
	}
	backing := make([]core.SlotResult, 5)
	for s := range backing {
		backing[s] = core.SlotResult{Slot: s, Advertiser: rng.Intn(50), PricePaid: price()}
	}
	var pool []list
	for n := 1 + rng.Intn(45); len(pool) < n; {
		l := list{phrase: rng.Intn(6), shard: rng.Intn(2), round: rng.Intn(3)}
		kind := rng.Intn(5)
		if kind == 1 && len(pool) == 0 {
			kind = 3
		}
		switch kind {
		case 0: // a span of the shared backing
			lo := rng.Intn(3)
			l.slots = backing[lo : lo+1+rng.Intn(len(backing)-lo)]
		case 1: // a value-equal copy of another list
			l.slots = append([]core.SlotResult(nil), pool[rng.Intn(len(pool))].slots...)
		case 2: // a near-equal copy
			l.slots = append([]core.SlotResult(nil), backing[:1+rng.Intn(len(backing))]...)
			s := &l.slots[rng.Intn(len(l.slots))]
			if rng.Intn(2) == 0 {
				s.PricePaid = math.Nextafter(s.PricePaid, math.Inf(1))
			} else {
				s.Advertiser++
			}
		default: // a list of its own
			for s := rng.Intn(6); s >= 0; s-- {
				l.slots = append(l.slots, core.SlotResult{Slot: len(l.slots), Advertiser: rng.Intn(50), PricePaid: price()})
			}
		}
		if len(pool) > 0 && rng.Intn(4) == 0 { // another list's key
			o := pool[rng.Intn(len(pool))]
			l.phrase, l.shard, l.round = o.phrase, o.shard, o.round
		}
		pool = append(pool, l)
	}
	n := 1 + rng.Intn(100)
	queries := make([]string, n)
	results := make([]server.Result, n)
	errs := make([]error, n)
	failures := []error{serr.ErrNoAuction, serr.ErrOverloaded, context.DeadlineExceeded}
	for i := range queries {
		queries[i] = fmt.Sprintf("q %d", i)
		if rng.Intn(6) == 0 {
			errs[i] = failures[rng.Intn(len(failures))]
			continue
		}
		l := pool[rng.Intn(len(pool))]
		results[i] = server.Result{Phrase: l.phrase, Shard: l.shard, Round: l.round, Slots: l.slots, Latency: time.Duration(rng.Intn(3))}
	}
	return queries, results, errs
}

// TestSlotMemoMatchesPlainCodec holds the reply codec's slot memo to the
// codec without it over random replies (randomReply). The memoized encoder
// writes the plain item-by-item encoder's bytes and refuses the same
// replies. The memoized client decoder reads, item for item, what a
// matcher that meets each item alone reads, and what encoding/json reads,
// also where failed items carry slots under repeated keys, and no item's
// slots alias another's.
func TestSlotMemoMatchesPlainCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	refused := 0
	for iter := 0; iter < 800; iter++ {
		queries, results, errs := randomReply(rng)
		items := batchItems(queries, results, errs)
		got, ok := appendBatchReply(nil, queries, results, errs)
		want, wantOK := itemsReply(items)
		if ok != wantOK || !bytes.Equal(got, want) {
			t.Fatalf("reply %d: memoized ok=%v\n%s\nplain ok=%v\n%s", iter, ok, got, wantOK, want)
		}
		if !ok {
			refused++
			continue
		}
		checkMemoDecode(t, items)
		// Failed items that carry slots, under the key of an answered item
		// or of their own, as a server other than ours might write them.
		for i := range items {
			if errs[i] == nil || rng.Intn(2) == 0 {
				continue
			}
			o := results[rng.Intn(len(results))]
			items[i].Phrase, items[i].Shard, items[i].Round, items[i].Slots = o.Phrase, o.Shard, o.Round, o.Slots
			if rng.Intn(3) == 0 {
				items[i].Phrase = 6 + rng.Intn(2)
			}
		}
		checkMemoDecode(t, items)
	}
	if refused == 0 || refused > 400 {
		t.Fatalf("%d of 800 replies refused for NaN or Inf prices; the generator should refuse some but not most", refused)
	}
}

// checkMemoDecode decodes the reply carrying items and holds it to each
// item decoded alone and to encoding/json, then writes into every item's
// slots and checks that no other item's change.
func checkMemoDecode(t *testing.T, items []batchItem) {
	t.Helper()
	queries := make([]string, len(items))
	for i := range items {
		queries[i] = items[i].Query
	}
	raw, _ := itemsReply(items)
	results, errs, ok := matchBatchReply(raw, queries, new([]core.SlotResult))
	if !ok {
		t.Fatalf("reply not matched: %s", raw)
	}
	for i := range items {
		alone, _ := itemsReply(items[i : i+1])
		want, wantErrs, ok := matchBatchReply(alone, queries[i:i+1], new([]core.SlotResult))
		if !ok {
			t.Fatalf("item not matched alone: %s", alone)
		}
		var e, wantErr error
		if errs != nil {
			e = errs[i]
		}
		if wantErrs != nil {
			wantErr = wantErrs[0]
		}
		if !reflect.DeepEqual(results[i], want[0]) || !reflect.DeepEqual(e, wantErr) {
			t.Fatalf("reply %s item %d:\n got %+v, %v\nalone %+v, %v", raw, i, results[i], e, want[0], wantErr)
		}
	}
	checkReplyDecode(t, raw, queries)
	before := make([][]core.SlotResult, len(results))
	for j := range results {
		before[j] = slices.Clone(results[j].Slots)
	}
	for i := range results {
		if len(results[i].Slots) == 0 {
			continue
		}
		results[i].Slots[0].Advertiser = -1
		grown := append(results[i].Slots, core.SlotResult{Slot: -1})
		grown[0].Slot = -2
		for j := range results {
			if j != i && !slices.Equal(results[j].Slots, before[j]) {
				t.Fatalf("reply %s: writing item %d's slots changed item %d's", raw, i, j)
			}
		}
		results[i].Slots[0] = before[i][0]
	}
}
