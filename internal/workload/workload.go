// Package workload generates the synthetic auction workloads the benchmark
// harness runs on, substituting for the proprietary search traces the paper
// had no public version of (see DESIGN.md §2).
//
// The generator produces the structure the paper's techniques exploit:
// topic-clustered advertiser interests (general stores shared across many
// phrases, specialists on few), Zipf-like phrase popularity driving
// per-round Bernoulli occurrence (the paper's search-rate model), bids that
// random-walk between rounds (advertisers run automated bidding programs),
// and a delayed-click simulator whose remaining click probability decays
// geometrically with ad age — the shape Section IV assumes for outstanding
// ads.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"sharedwd/internal/auction"
	"sharedwd/internal/bitset"
)

// Config parameterizes workload generation.
type Config struct {
	NumAdvertisers int
	NumPhrases     int
	NumTopics      int
	Slots          int
	Seed           int64

	// BaseSearchRate scales phrase occurrence probabilities; phrase ranked
	// r (0-based popularity order) gets min(0.95, BaseSearchRate/(r+1)^0.7).
	BaseSearchRate float64
	// Bid range for initial bids.
	MinBid, MaxBid float64
	// Daily budget range.
	MinBudget, MaxBudget float64
	// PerPhraseQuality makes the advertiser-specific CTR factor c_i^q vary
	// by phrase (the Section III regime); otherwise a single c_i is used.
	PerPhraseQuality bool
	// BroadMatchFraction, when positive, overrides the default 1/3 chance
	// that an advertiser is "general" (bidding across topics). High values
	// model broad-match-heavy campaigns where most advertisers appear in
	// most auctions — the overlap regime the paper's sharing heuristic
	// targets. Zero keeps the default behaviour (and, deliberately, the
	// default random stream: existing seeds reproduce bit-identically).
	BroadMatchFraction float64
}

// DefaultConfig returns a mid-sized workload configuration.
func DefaultConfig() Config {
	return Config{
		NumAdvertisers: 400,
		NumPhrases:     24,
		NumTopics:      6,
		Slots:          4,
		Seed:           1,
		BaseSearchRate: 0.8,
		MinBid:         0.1,
		MaxBid:         5,
		MinBudget:      20,
		MaxBudget:      200,
	}
}

// HighOverlapConfig returns a broad-match-heavy workload configuration:
// most advertisers are general (85% broad match), so the occurring
// auctions share most of their participant sets. This is the regime where
// the Section-II sharing heuristic finds large common fragments and shared
// winner determination should beat per-auction scans on wall-clock, not
// just operator counts — the crossover the benchmarks measure.
func HighOverlapConfig() Config {
	cfg := DefaultConfig()
	cfg.BroadMatchFraction = 0.85
	return cfg
}

// Validate reports whether the configuration can generate a workload: all
// dimensions positive and ranges non-inverted. Generate panics on exactly
// the configurations Validate rejects.
func (c Config) Validate() error {
	if c.NumAdvertisers <= 0 || c.NumPhrases <= 0 || c.NumTopics <= 0 || c.Slots <= 0 {
		return fmt.Errorf("workload: non-positive dimensions in %+v", c)
	}
	if c.MinBid > c.MaxBid || c.MinBudget > c.MaxBudget {
		return fmt.Errorf("workload: inverted bid or budget range in %+v", c)
	}
	return nil
}

// Workload is a generated auction universe.
//
// Thread safety: a Workload is not safe for concurrent use. The engine (or
// server) stepping it owns its random stream and bid vector; mutators
// (PerturbBids, budget edits) must run on the same goroutine as Step.
type Workload struct {
	Cfg         Config
	Advertisers []auction.Advertiser
	// Interests[q] is the advertiser set of phrase q.
	Interests []bitset.Set
	// Rates[q] is phrase q's per-round occurrence probability.
	Rates []float64
	// PhraseNames are human-readable bid phrases ("topic2/phrase-5").
	PhraseNames []string
	// SlotFactors are the descending d_j.
	SlotFactors []float64
	// Quality[q][i] is c_i^q when Cfg.PerPhraseQuality; otherwise nil and
	// Advertisers[i].Quality is the global c_i.
	Quality [][]float64

	rng *rand.Rand
}

// Generate builds a workload from the configuration. It validates the
// configuration and panics on nonsensical values, since configurations are
// authored by harness code, not end users.
func Generate(cfg Config) *Workload {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &Workload{Cfg: cfg, rng: rng}

	// Advertisers: a third are "general" (interested across topics), the
	// rest specialize in one topic — the shoe-store structure of §II-B.
	topicOf := make([]int, cfg.NumAdvertisers)
	general := make([]bool, cfg.NumAdvertisers)
	w.Advertisers = make([]auction.Advertiser, cfg.NumAdvertisers)
	for i := range w.Advertisers {
		topicOf[i] = rng.Intn(cfg.NumTopics)
		// The branch keeps the default path's random stream untouched:
		// configs with BroadMatchFraction == 0 consume the same draws as
		// before the knob existed, so seeded workloads stay reproducible.
		if cfg.BroadMatchFraction > 0 {
			general[i] = rng.Float64() < cfg.BroadMatchFraction
		} else {
			general[i] = rng.Intn(3) == 0
		}
		w.Advertisers[i] = auction.Advertiser{
			ID:      i,
			Bid:     cfg.MinBid + rng.Float64()*(cfg.MaxBid-cfg.MinBid),
			Quality: 0.5 + rng.Float64(), // c_i ∈ [0.5, 1.5)
			Budget:  cfg.MinBudget + rng.Float64()*(cfg.MaxBudget-cfg.MinBudget),
		}
	}

	// Phrases: each belongs to a topic; popularity rank sets its rate.
	w.Interests = make([]bitset.Set, cfg.NumPhrases)
	w.Rates = make([]float64, cfg.NumPhrases)
	w.PhraseNames = make([]string, cfg.NumPhrases)
	for q := 0; q < cfg.NumPhrases; q++ {
		topic := q % cfg.NumTopics
		w.PhraseNames[q] = fmt.Sprintf("topic%d/phrase-%d", topic, q)
		w.Rates[q] = math.Min(0.95, cfg.BaseSearchRate/math.Pow(float64(q+1), 0.7))
		in := bitset.New(cfg.NumAdvertisers)
		for i := 0; i < cfg.NumAdvertisers; i++ {
			switch {
			case general[i]:
				// Broad-match campaigns match every phrase by definition —
				// identical interest signatures are what lets the sharing
				// heuristic put all of them in one shared fragment. The
				// default mix keeps the original probabilistic membership
				// (and random stream).
				if cfg.BroadMatchFraction > 0 {
					in.Add(i)
				} else if rng.Float64() < 0.8 {
					in.Add(i)
				}
			case topicOf[i] == topic:
				if rng.Float64() < 0.7 {
					in.Add(i)
				}
			default:
				if rng.Float64() < 0.02 {
					in.Add(i)
				}
			}
		}
		w.Interests[q] = in
	}

	// Slot factors: geometric decay from 0.3 (the common empirical shape).
	w.SlotFactors = make([]float64, cfg.Slots)
	v := 0.3
	for j := range w.SlotFactors {
		w.SlotFactors[j] = v
		v *= 0.7
	}

	if cfg.PerPhraseQuality {
		w.Quality = make([][]float64, cfg.NumPhrases)
		for q := range w.Quality {
			w.Quality[q] = make([]float64, cfg.NumAdvertisers)
			for i := range w.Quality[q] {
				// Per-phrase factor centered on the advertiser's base
				// quality: a book store is better at "books" than "DVDs".
				base := w.Advertisers[i].Quality
				w.Quality[q][i] = math.Max(0.05, base*(0.6+0.8*rng.Float64()))
			}
		}
	}
	return w
}

// NewCustom assembles a workload from explicit parts, for focused
// experiments (e.g. the Section-IV gaming scenario) and tests. interests
// and rates must have equal length; interest sets must have capacity
// len(advertisers); slotFactors must be descending.
func NewCustom(advertisers []auction.Advertiser, interests []bitset.Set, rates, slotFactors []float64, seed int64) (*Workload, error) {
	if len(interests) != len(rates) {
		return nil, fmt.Errorf("workload: %d interest sets, %d rates", len(interests), len(rates))
	}
	minBid, maxBid := math.Inf(1), math.Inf(-1)
	for i, a := range advertisers {
		if a.ID != i {
			return nil, fmt.Errorf("workload: advertiser %d has ID %d; IDs must be positional", i, a.ID)
		}
		minBid = math.Min(minBid, a.Bid)
		maxBid = math.Max(maxBid, a.Bid)
	}
	for q, in := range interests {
		if in.Cap() != len(advertisers) {
			return nil, fmt.Errorf("workload: interest set %d capacity %d, want %d", q, in.Cap(), len(advertisers))
		}
		if rates[q] < 0 || rates[q] > 1 {
			return nil, fmt.Errorf("workload: rate[%d] = %v", q, rates[q])
		}
	}
	for j := 1; j < len(slotFactors); j++ {
		if slotFactors[j] > slotFactors[j-1] {
			return nil, fmt.Errorf("workload: slot factors not descending")
		}
	}
	names := make([]string, len(interests))
	for q := range names {
		names[q] = fmt.Sprintf("phrase-%d", q)
	}
	return &Workload{
		Cfg: Config{
			NumAdvertisers: len(advertisers),
			NumPhrases:     len(interests),
			NumTopics:      1,
			Slots:          len(slotFactors),
			Seed:           seed,
			MinBid:         minBid,
			MaxBid:         maxBid,
		},
		Advertisers: advertisers,
		Interests:   interests,
		Rates:       rates,
		PhraseNames: names,
		SlotFactors: slotFactors,
		rng:         rand.New(rand.NewSource(seed)),
	}, nil
}

// Rng exposes the workload's deterministic random stream so that
// components simulating the same world (e.g. the click simulator) draw
// from one reproducible source.
func (w *Workload) Rng() *rand.Rand { return w.rng }

// QualityFor returns c_i^q — the per-phrase factor when configured, else
// the advertiser's global quality.
func (w *Workload) QualityFor(q, i int) float64 {
	if w.Quality != nil {
		return w.Quality[q][i]
	}
	return w.Advertisers[i].Quality
}

// SampleRound draws which phrases occur this round: independent Bernoulli
// trials with the phrases' search rates, the paper's round model.
func (w *Workload) SampleRound() []bool {
	return w.SampleRoundInto(make([]bool, w.Cfg.NumPhrases))
}

// SampleRoundInto is SampleRound writing into occ when its capacity allows,
// so steady-state engines can reuse one occurrence buffer; a fresh slice is
// allocated only when occ is too small.
func (w *Workload) SampleRoundInto(occ []bool) []bool {
	if cap(occ) < w.Cfg.NumPhrases {
		occ = make([]bool, w.Cfg.NumPhrases)
	}
	occ = occ[:w.Cfg.NumPhrases]
	for q, r := range w.Rates {
		occ[q] = w.rng.Float64() < r
	}
	return occ
}

// RotateRates shifts the search rates by k phrases (phrase q gets phrase
// (q+k) mod n's rate): the same total traffic, landing on different
// phrases. An engine built afterwards plans for the rotated rates. Like
// every workload mutator it must run on the goroutine that owns the
// workload.
func (w *Workload) RotateRates(k int) {
	n := len(w.Rates)
	if n == 0 {
		return
	}
	k = ((k % n) + n) % n
	rotated := make([]float64, n)
	copy(rotated, w.Rates[k:])
	copy(rotated[n-k:], w.Rates[:k])
	copy(w.Rates, rotated)
}

// PerturbBids applies one step of a clamped multiplicative random walk to
// every bid, modeling automated bidding programs adjusting between rounds.
func (w *Workload) PerturbBids(scale float64) {
	for i := range w.Advertisers {
		f := 1 + scale*(w.rng.Float64()*2-1)
		b := w.Advertisers[i].Bid * f
		if b < w.Cfg.MinBid {
			b = w.Cfg.MinBid
		}
		if b > w.Cfg.MaxBid {
			b = w.Cfg.MaxBid
		}
		w.Advertisers[i].Bid = b
	}
}

// Bids returns the current bid vector (a copy).
func (w *Workload) Bids() []float64 {
	out := make([]float64, len(w.Advertisers))
	for i, a := range w.Advertisers {
		out[i] = a.Bid
	}
	return out
}
