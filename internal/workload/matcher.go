package workload

import (
	"strings"
	"unicode/utf8"
)

// Matcher implements the two-stage query-to-bid-phrase mapping the paper
// assumes (Radlinski et al. [11]): a raw search query is first mapped into
// the lower-dimensional bid-phrase space (normalization plus a rewrite
// table), then matched to advertisers' bid phrases by exact match.
//
// Match allocates nothing for an all-ASCII query whose normalized form
// fits in normBufLen bytes: it normalizes into a stack buffer and looks the
// bytes up directly. Any other query goes through Normalize.
//
// Thread safety: Match is safe for concurrent use once configuration is
// done — the server's admission path calls it from many goroutines —
// but AddRewrite mutates the table and must complete before any
// concurrent Match begins.
type Matcher struct {
	phraseID map[string]int
	rewrites map[string]string
}

// normBufLen is the stack buffer Match normalizes a query into; a query
// whose normalized form is longer goes through Normalize.
const normBufLen = 128

// NewMatcher indexes the given bid phrases. Phrase strings are normalized;
// duplicates after normalization keep the first ID.
func NewMatcher(phrases []string) *Matcher {
	m := &Matcher{
		phraseID: make(map[string]int, len(phrases)),
		rewrites: make(map[string]string),
	}
	for id, p := range phrases {
		key := Normalize(p)
		if _, ok := m.phraseID[key]; !ok {
			m.phraseID[key] = id
		}
	}
	return m
}

// AddRewrite registers a stage-one rewrite: queries normalizing to `from`
// are mapped to the bid phrase `to` (both are normalized internally).
// Rewrites model the query-substitution stage: "sneakers" → "running shoes".
func (m *Matcher) AddRewrite(from, to string) {
	m.rewrites[Normalize(from)] = Normalize(to)
}

// Match maps a raw query to a bid-phrase ID: normalize, apply at most one
// rewrite, then exact match. ok=false means no advertiser bid on anything
// matching the query, so no auction runs.
func (m *Matcher) Match(query string) (int, bool) {
	var buf [normBufLen]byte
	key, ok := normalizeASCII(buf[:0], query)
	if !ok {
		key = []byte(Normalize(query))
	}
	// m[string(b)] looks b up without copying it into a string.
	if to, ok := m.rewrites[string(key)]; ok {
		id, ok := m.phraseID[to]
		return id, ok
	}
	id, ok := m.phraseID[string(key)]
	return id, ok
}

// Normalize lower-cases, trims, and collapses internal whitespace — the
// deterministic stand-in for the paper's dimensionality-reducing first
// stage. Match computes the same bytes without allocating for short ASCII
// queries (normalizeASCII); FuzzNormalize holds the two together.
func Normalize(s string) string {
	return strings.Join(strings.Fields(strings.ToLower(s)), " ")
}

// asciiSpace[c] reports whether strings.Fields splits at the ASCII byte c.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// normalizeASCII writes Normalize(s) into the empty buf, within its
// capacity. For ASCII, strings.ToLower maps only A–Z and strings.Fields
// splits only at asciiSpace. ok=false when s holds a byte outside ASCII or
// its normalized form does not fit.
func normalizeASCII(buf []byte, s string) (norm []byte, ok bool) {
	gap := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= utf8.RuneSelf:
			return nil, false
		case asciiSpace[c]:
			gap = len(buf) > 0
			continue
		case 'A' <= c && c <= 'Z':
			c += 'a' - 'A'
		}
		if gap && len(buf) < cap(buf) {
			buf, gap = append(buf, ' '), false
		}
		if gap || len(buf) == cap(buf) {
			return nil, false
		}
		buf = append(buf, c)
	}
	return buf, true
}
