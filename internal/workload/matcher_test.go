package workload

import (
	"strings"
	"testing"
)

// FuzzNormalize holds Match's stack-buffer normalization to Normalize: on
// any string it either refuses (a byte outside ASCII, or a normalized form
// longer than the buffer) or yields Normalize's bytes, and it refuses an
// ASCII string only when Normalize's result does not fit.
func FuzzNormalize(f *testing.F) {
	for _, s := range []string{
		"", " ", "  FOO   bar\tbaz ", "Hiking  Boots", "\t\n\v\f\r x \r\n", "topic2/PHRASE-5",
		"ünïcödé", "a b", "a\u0085b", "\xff", "İ", "K", strings.Repeat("ab ", 60),
		strings.Repeat("x", normBufLen), strings.Repeat("x", normBufLen+1), " " + strings.Repeat("y", normBufLen) + " ",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var buf [normBufLen]byte
		got, ok := normalizeASCII(buf[:0], s)
		want := Normalize(s)
		ascii := true
		for i := 0; i < len(s); i++ {
			ascii = ascii && s[i] < 0x80
		}
		switch {
		case ok && string(got) != want:
			t.Fatalf("normalizeASCII(%q) = %q, Normalize %q", s, got, want)
		case !ok && ascii && len(want) <= normBufLen:
			t.Fatalf("normalizeASCII(%q) refused an ASCII query whose form %q fits", s, want)
		case ok && !ascii:
			t.Fatalf("normalizeASCII(%q) accepted a non-ASCII query", s)
		}
	})
}

// TestMatchZeroAlloc pins Match at no allocation for the ASCII queries the
// serving workloads send: phrase variants, rewritten synonyms and misses.
func TestMatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	cfg := DefaultConfig()
	cfg.NumAdvertisers, cfg.NumPhrases = 200, 24
	w := Generate(cfg)
	m := NewMatcher(w.PhraseNames)
	m.AddRewrite("Sneakers", w.PhraseNames[3])
	qs := NewQueryStream(w, 0.1, 1)
	queries := []string{"  SNEAKERS ", "zzz no such phrase 7"}
	for len(queries) < 256 {
		queries = append(queries, qs.Round()...)
	}
	for _, q := range queries {
		id, ok := m.Match(q)
		wantID, wantOK := m.phraseID[m.rewriteOf(Normalize(q))]
		if id != wantID || ok != wantOK {
			t.Fatalf("Match(%q) = %d, %v; want %d, %v", q, id, ok, wantID, wantOK)
		}
	}
	if id, ok := m.Match(queries[0]); !ok || id != 3 {
		t.Fatalf("Match(%q) = %d, %v; want the rewrite's phrase 3", queries[0], id, ok)
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		m.Match(queries[i%len(queries)])
		i++
	}); n != 0 {
		t.Fatalf("Match allocates %.2f/op, want 0", n)
	}
}

// rewriteOf is key after the rewrite table, as Match applies it.
func (m *Matcher) rewriteOf(key string) string {
	if to, ok := m.rewrites[key]; ok {
		return to
	}
	return key
}
