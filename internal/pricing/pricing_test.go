package pricing

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func rankedFixture() []Ranked {
	// Effective bids: 12, 9.9, 1.3 (the Figures 1–3 advertisers).
	return []Ranked{
		{ID: 0, Bid: 10, Quality: 1.2},
		{ID: 1, Bid: 9, Quality: 1.1},
		{ID: 2, Bid: 1, Quality: 1.3},
	}
}

func TestFirstPrice(t *testing.T) {
	p := Prices(FirstPrice, rankedFixture(), []float64{0.3, 0.2})
	if p[0] != 10 || p[1] != 9 {
		t.Fatalf("first-price = %v", p)
	}
}

func TestGSPByHand(t *testing.T) {
	p := Prices(GSP, rankedFixture(), []float64{0.3, 0.2})
	// Slot 0: next effective 9.9 / own quality 1.2 = 8.25.
	// Slot 1: next effective 1.3 / 1.1 ≈ 1.1818.
	if math.Abs(p[0]-8.25) > 1e-9 {
		t.Fatalf("GSP slot0 = %v, want 8.25", p[0])
	}
	if math.Abs(p[1]-1.3/1.1) > 1e-9 {
		t.Fatalf("GSP slot1 = %v, want %v", p[1], 1.3/1.1)
	}
}

func TestGSPNoCompetitorBelow(t *testing.T) {
	p := Prices(GSP, rankedFixture()[:1], []float64{0.3, 0.2})
	if len(p) != 1 || p[0] != 0 {
		t.Fatalf("lone bidder should pay reserve 0, got %v", p)
	}
}

func TestVCGByHand(t *testing.T) {
	// Classic two-slot example with quality 1: bids 10, 9, 1; d = 0.3, 0.2.
	r := []Ranked{{0, 10, 1}, {1, 9, 1}, {2, 1, 1}}
	p := Prices(VCG, r, []float64{0.3, 0.2})
	// Slot 1: p1·0.2 = b2·0.2 → p1 = 1.
	// Slot 0: p0·0.3 = p1·0.2 + b1·(0.3−0.2) = 0.2 + 0.9 → p0 = 1.1/0.3.
	if math.Abs(p[1]-1) > 1e-9 {
		t.Fatalf("VCG slot1 = %v, want 1", p[1])
	}
	if math.Abs(p[0]-1.1/0.3) > 1e-9 {
		t.Fatalf("VCG slot0 = %v, want %v", p[0], 1.1/0.3)
	}
}

func TestVCGEqualsSecondPriceSingleSlot(t *testing.T) {
	// One slot: VCG and GSP both degenerate to second price.
	r := []Ranked{{0, 10, 1}, {1, 7, 1}}
	d := []float64{0.4}
	vcg := Prices(VCG, r, d)
	gsp := Prices(GSP, r, d)
	if math.Abs(vcg[0]-7) > 1e-9 || math.Abs(gsp[0]-7) > 1e-9 {
		t.Fatalf("single-slot: vcg=%v gsp=%v, want 7", vcg, gsp)
	}
}

func TestEmptySlotsAndRanked(t *testing.T) {
	if p := Prices(GSP, rankedFixture(), nil); p != nil {
		t.Fatalf("no slots should price nothing, got %v", p)
	}
	if p := Prices(VCG, nil, []float64{0.3}); len(p) != 0 {
		t.Fatalf("no advertisers should price nothing, got %v", p)
	}
}

func TestUnsortedFactorsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Prices(GSP, rankedFixture(), []float64{0.2, 0.3})
}

func TestRuleString(t *testing.T) {
	for r, want := range map[Rule]string{FirstPrice: "first-price", GSP: "GSP", VCG: "VCG"} {
		if r.String() != want {
			t.Fatalf("String(%d) = %q", r, r.String())
		}
	}
}

func randomRanked(rng *rand.Rand) ([]Ranked, []float64) {
	n := 1 + rng.Intn(10)
	r := make([]Ranked, n)
	for i := range r {
		r[i] = Ranked{ID: i, Bid: rng.Float64() * 10, Quality: 0.2 + rng.Float64()}
	}
	sort.Slice(r, func(a, b int) bool { return r[a].effective() > r[b].effective() })
	k := 1 + rng.Intn(4)
	d := make([]float64, k)
	v := 0.5
	for j := range d {
		d[j] = v
		v *= 0.4 + 0.5*rng.Float64()
	}
	return r, d
}

// TestQuickPriceNeverExceedsBid: the universal pricing constraint, for every
// rule on random instances.
func TestQuickPriceNeverExceedsBid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, d := randomRanked(rng)
		for _, rule := range []Rule{FirstPrice, GSP, VCG} {
			for j, p := range Prices(rule, r, d) {
				if p > r[j].Bid+1e-9 || p < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickVCGBelowGSP: with truthful bids, each winner's expected VCG
// payment is at most his GSP payment (Edelman–Ostrovsky–Schwarz).
func TestQuickVCGBelowGSP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, d := randomRanked(rng)
		gsp := Prices(GSP, r, d)
		vcg := Prices(VCG, r, d)
		for j := range vcg {
			if vcg[j] > gsp[j]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterReserve(t *testing.T) {
	r := rankedFixture() // bids 10, 9, 1
	if got := AppendFilterReserve(nil, r, 5); len(got) != 2 {
		t.Fatalf("participants = %v", got)
	}
	if got := AppendFilterReserve(nil, r, 0); len(got) != 3 {
		t.Fatal("zero reserve should keep everyone")
	}
	if got := AppendFilterReserve(nil, r, 20); len(got) != 0 {
		t.Fatalf("unattainable reserve should keep no one, got %v", got)
	}
}

func TestPricesWithReserveByHand(t *testing.T) {
	r := rankedFixture() // effective 12, 9.9, 1.3
	d := []float64{0.3, 0.2}
	// Reserve 5 removes advertiser 2: slot 0 pays GSP 8.25; slot 1, with
	// no competitor below, pays the reserve instead of 0.
	participants, prices := AppendPricesWithReserve(nil, nil, GSP, r, d, 5)
	if len(participants) != 2 || len(prices) != 2 {
		t.Fatalf("participants/prices = %v/%v", participants, prices)
	}
	if math.Abs(prices[0]-8.25) > 1e-9 {
		t.Fatalf("slot0 = %v, want 8.25", prices[0])
	}
	if prices[1] != 5 {
		t.Fatalf("slot1 = %v, want reserve 5", prices[1])
	}
}

// TestQuickReserveInvariants: with any reserve, every price is in
// [reserve, bid] and every winner's bid meets the reserve.
func TestQuickReserveInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, d := randomRanked(rng)
		reserve := rng.Float64() * 8
		for _, rule := range []Rule{FirstPrice, GSP, VCG} {
			participants, prices := AppendPricesWithReserve(nil, nil, rule, r, d, reserve)
			for j, p := range prices {
				if participants[j].Bid < reserve {
					return false
				}
				if p < reserve-1e-9 || p > participants[j].Bid+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickVCGIsExternality: total VCG payments equal the welfare loss the
// winners impose on others — checked by recomputing the optimal assignment
// value without each winner (small instances, exhaustive welfare).
func TestQuickVCGIsExternality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		r := make([]Ranked, n)
		for i := range r {
			r[i] = Ranked{ID: i, Bid: float64(1 + rng.Intn(10)), Quality: 1}
		}
		sort.Slice(r, func(a, b int) bool {
			if r[a].effective() != r[b].effective() {
				return r[a].effective() > r[b].effective()
			}
			return r[a].ID < r[b].ID
		})
		k := 1 + rng.Intn(3)
		d := make([]float64, k)
		v := 0.5
		for j := range d {
			d[j] = v
			v *= 0.5
		}
		prices := Prices(VCG, r, d)
		welfare := func(rs []Ranked) float64 {
			total := 0.0
			for j := 0; j < len(d) && j < len(rs); j++ {
				total += rs[j].effective() * d[j]
			}
			return total
		}
		for j := range prices {
			// Externality of winner j: others' welfare without him minus
			// others' welfare with him.
			without := append(append([]Ranked{}, r[:j]...), r[j+1:]...)
			othersWith := welfare(r) - r[j].effective()*d[j]
			ext := welfare(without) - othersWith
			if math.Abs(prices[j]*r[j].Quality*d[j]-ext) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
