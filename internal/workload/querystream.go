package workload

import (
	"fmt"
	"math/rand"
	"strings"
)

// QueryStream generates raw search-query strings round by round, modeling
// the traffic in front of the two-stage matcher: queries arrive as messy
// variants (case, whitespace) of bid phrases or as known synonyms that the
// matcher's rewrite table maps back — plus a fraction of junk queries that
// match nothing and trigger no auction.
//
// Thread safety: a QueryStream owns a private random stream and is not safe
// for concurrent use; give each load-generating goroutine its own stream
// (distinct seeds keep them independent).
type QueryStream struct {
	phrases  []string
	rates    []float64
	synonyms map[string]string // synonym -> phrase
	synList  []string
	junkRate float64
	rng      *rand.Rand
}

// NewQueryStream builds a stream over the workload's phrases. junkRate is
// the probability that an arriving query matches no bid phrase.
func NewQueryStream(w *Workload, junkRate float64, seed int64) *QueryStream {
	if junkRate < 0 || junkRate >= 1 {
		panic(fmt.Sprintf("workload: junk rate %v outside [0,1)", junkRate))
	}
	return &QueryStream{
		phrases: w.PhraseNames,
		// Private copy: the serving stack owns the workload once a server
		// starts, so a client's stream must not share its rate slice.
		rates:    append([]float64(nil), w.Rates...),
		synonyms: make(map[string]string),
		junkRate: junkRate,
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// AddSynonym registers a raw-query synonym for a phrase; the caller should
// mirror it into the matcher's rewrite table.
func (qs *QueryStream) AddSynonym(synonym, phrase string) {
	qs.synonyms[synonym] = phrase
	qs.synList = append(qs.synList, synonym)
}

// Round emits the raw queries for one round: each phrase occurs with its
// search rate (possibly several times for high-rate phrases), rendered as a
// messy variant or synonym, interleaved with junk queries.
func (qs *QueryStream) Round() []string {
	var out []string
	for q, rate := range qs.rates {
		if qs.rng.Float64() >= rate {
			continue
		}
		out = append(out, qs.render(qs.phrases[q]))
		// High-volume phrases can arrive more than once per round; the
		// batch still resolves one auction per phrase.
		for qs.rng.Float64() < rate/2 {
			out = append(out, qs.render(qs.phrases[q]))
		}
	}
	junk := 0
	for qs.rng.Float64() < qs.junkRate {
		junk++
		out = append(out, fmt.Sprintf("zzz unmatched query %d %d", junk, qs.rng.Intn(1000)))
	}
	qs.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// render produces a messy variant of the phrase: random casing, padding,
// doubled spaces, or a registered synonym.
func (qs *QueryStream) render(phrase string) string {
	// Prefer a synonym for this phrase when one exists, sometimes.
	if qs.rng.Intn(4) == 0 {
		for _, syn := range qs.synList {
			if qs.synonyms[syn] == phrase {
				return syn
			}
		}
	}
	s := phrase
	switch qs.rng.Intn(4) {
	case 0:
		s = strings.ToUpper(s)
	case 1:
		s = titleCase(s)
	}
	if qs.rng.Intn(3) == 0 {
		s = "  " + s + " "
	}
	if qs.rng.Intn(3) == 0 {
		s = strings.ReplaceAll(s, " ", "   ")
	}
	return s
}

// titleCase upper-cases the first letter of each ASCII word — deliberately
// messy user-style capitalization, not linguistic title casing.
func titleCase(s string) string {
	fields := strings.Fields(s)
	for i, f := range fields {
		if f[0] >= 'a' && f[0] <= 'z' {
			fields[i] = string(f[0]-'a'+'A') + f[1:]
		}
	}
	return strings.Join(fields, " ")
}

// Occurrences maps a batch of raw queries to the per-phrase occurrence
// vector the engine consumes, using the matcher; unmatched queries are
// counted and dropped (no auction).
func Occurrences(m *Matcher, numPhrases int, queries []string) (occurring []bool, unmatched int) {
	occurring = make([]bool, numPhrases)
	for _, q := range queries {
		if id, ok := m.Match(q); ok {
			occurring[id] = true
		} else {
			unmatched++
		}
	}
	return occurring, unmatched
}
