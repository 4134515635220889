package workload

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// FuzzClickSim runs random Display/Advance sequences through ClickSim and
// through refClickSim, the pending-slice simulator it replaced, and requires
// after every step the same clicks in the same order, the same pending
// count, and — for every advertiser, one of which never displays — the same
// Outstanding ads bit for bit at the advanced round, at round + Horizon − 1
// (the oldest age that still counts) and at round + Horizon. (Outstanding
// is AppendOutstanding, which the engine reads, reshaped.)
//
// Outstanding is first asked at a random step, which builds ClickSim's
// advertiser lists over the ads pending then. The sequences cover repeated
// rounds, gaps (some longer than the horizon),
// displays before the first Advance, at the round just advanced, one round
// ahead of it and at earlier rounds, zero-price and zero-ctr ads, horizons
// 1 and 2, hazard 1, and both outcome sources: random draws (each simulator
// has its own rand.Rand on the same seed, so equal clicks also mean equal
// RNG consumption) and a pure OutcomeFunc whose delays include invalid ones.
func FuzzClickSim(f *testing.F) {
	for _, s := range []struct {
		seed                 int64
		horizon, hazard, how uint8
	}{
		{1, 20, 77, 0}, {2, 0, 12, 0}, {3, 1, 0, 0}, {4, 5, 255, 1},
		{5, 1, 40, 1}, {6, 0, 0, 1}, {7, 9, 8, 0}, {8, 3, 4, 1},
	} {
		f.Add(s.seed, s.horizon, s.hazard, s.how)
	}
	f.Fuzz(func(t *testing.T, seed int64, horizonSel, hazardSel, how uint8) {
		horizon := 1 + int(horizonSel%24)
		hazard := 1.0 // every fourth selector: the degenerate hazard
		if hazardSel%4 != 0 {
			hazard = (float64(hazardSel) + 1) / 256
		}
		cs := NewClickSim(rand.New(rand.NewSource(seed)), hazard, horizon)
		ref := newRefClickSim(rand.New(rand.NewSource(seed)), hazard, horizon)
		if how%2 == 1 {
			outcome := pureOutcome(seed, horizon)
			cs.SetOutcome(outcome)
			ref.SetOutcome(outcome)
		}

		const advertisers = 7 // advertiser 6 never displays
		ops := rand.New(rand.NewSource(seed ^ 0x5eed))
		round := ops.Intn(4)
		// Outstanding is first asked at step indexFrom, so the advertiser
		// lists are built over whatever is pending then.
		indexFrom := ops.Intn(60)
		check := func(step int, what string, got, want []Click) {
			t.Helper()
			if !slices.Equal(got, want) {
				t.Fatalf("step %d (%s, round %d): clicks %+v, want %+v", step, what, round, got, want)
			}
			if g, w := cs.PendingCount(), ref.PendingCount(); g != w {
				t.Fatalf("step %d (%s, round %d): pending %d, want %d", step, what, round, g, w)
			}
			if step < indexFrom {
				return
			}
			for _, at := range []int{round, round + horizon - 1, round + horizon} {
				for i := 0; i < advertisers; i++ {
					gotP, gotC := cs.Outstanding(i, at)
					wantP, wantC := ref.Outstanding(i, at)
					if !sameBits(gotP, wantP) || !sameBits(gotC, wantC) {
						t.Fatalf("step %d (%s, round %d): Outstanding(%d, %d) = %v %v, want %v %v",
							step, what, round, i, at, gotP, gotC, wantP, wantC)
					}
				}
			}
		}
		for step := 0; step < 120; step++ {
			if step > 0 && ops.Intn(3) == 0 {
				switch k := ops.Intn(10); {
				case k == 0: // the same round again
				case k < 7:
					round++
				default: // a gap, possibly past the whole horizon
					round += 2 + ops.Intn(horizon+3)
				}
				check(step, "advance", slices.Clone(cs.Advance(round)), slices.Clone(ref.Advance(round)))
				continue
			}
			at := round
			switch k := ops.Intn(8); {
			case k == 0:
				at = round + 1 // ahead of the last Advance, as before the first
			case k == 1:
				at = max(0, round-1-ops.Intn(horizon+2))
			}
			price := 0.5 + 2.5*ops.Float64()
			if ops.Intn(5) == 0 {
				price = 0
			}
			ctr := ops.Float64()
			if ops.Intn(7) == 0 {
				ctr = 0
			}
			adv := ops.Intn(advertisers - 1)
			cs.Display(adv, price, ctr, at)
			ref.Display(adv, price, ctr, at)
			check(step, "display", nil, nil)
		}
	})
}

// pureOutcome is a deterministic OutcomeFunc over a seed: a hash of its
// arguments picks the fate, with delays from −1 to horizon + 1 so that the
// invalid ones (< 1, ≥ horizon) are exercised too.
func pureOutcome(seed int64, horizon int) OutcomeFunc {
	return func(advertiser int, price, ctr float64, round int) (bool, int) {
		x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(advertiser)*0xbf58476d1ce4e5b9 ^
			math.Float64bits(price) ^ math.Float64bits(ctr)<<1 ^ uint64(round)*0x94d049bb133111eb
		x ^= x >> 31
		x *= 0xd6e8feb86659fd93
		x ^= x >> 29
		return x%3 != 0, int((x>>8)%uint64(horizon+3)) - 1
	}
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// clickStream is a churn-shaped display stream: 80 displays per round over
// 2,000 advertisers, ctr 0.05–0.3 and prices 0.5–3, pre-drawn for a cycle of
// rounds so that drawing them costs nothing in the timed loop.
type clickStream struct {
	adv        []int
	price, ctr []float64
}

const streamPerRound, streamRounds = 80, 256

func newClickStream() *clickStream {
	rng := rand.New(rand.NewSource(1))
	n := streamPerRound * streamRounds
	s := &clickStream{adv: make([]int, n), price: make([]float64, n), ctr: make([]float64, n)}
	for i := range s.adv {
		s.adv[i] = rng.Intn(2000)
		s.price[i] = 0.5 + 2.5*rng.Float64()
		s.ctr[i] = 0.05 + 0.25*rng.Float64()
	}
	return s
}

// clickSimulator is what the stream drives: ClickSim or refClickSim.
type clickSimulator interface {
	Display(advertiser int, price, ctr float64, round int)
	Advance(round int) []Click
}

// round plays round r in engine order: Advance, then the round's displays.
func (s *clickStream) round(cs clickSimulator, r int) {
	cs.Advance(r)
	base := (r % streamRounds) * streamPerRound
	for i := base; i < base+streamPerRound; i++ {
		cs.Display(s.adv[i], s.price[i], s.ctr[i], r)
	}
}

// BenchmarkClickSim times one churn-shaped round — Advance plus 80 Displays
// at hazard 0.3 and horizon 20, the engine's defaults — on the pending-slice
// reference and on the timing wheel, after enough rounds that both hold
// their steady-state pending set. wheel is a Naive engine's simulator, which
// nothing asks for outstanding ads; wheel-indexed has been asked once, so
// it keeps the advertiser lists too, as a Throttled engine's does. ns/op is
// per round.
//
//	go test -run '^$' -bench ClickSim -benchmem ./internal/workload
func BenchmarkClickSim(b *testing.B) {
	s := newClickStream()
	for _, bc := range []struct {
		name string
		sim  func() clickSimulator
	}{
		{"ref", func() clickSimulator { return newRefClickSim(rand.New(rand.NewSource(1)), 0.3, 20) }},
		{"wheel", func() clickSimulator { return NewClickSim(rand.New(rand.NewSource(1)), 0.3, 20) }},
		{"wheel-indexed", func() clickSimulator {
			cs := NewClickSim(rand.New(rand.NewSource(1)), 0.3, 20)
			cs.Outstanding(0, 0)
			return cs
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cs := bc.sim()
			r := 0
			for ; r < 200; r++ {
				s.round(cs, r)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.round(cs, r)
				r++
			}
		})
	}
}

// TestClickSimSteadyStateZeroAlloc: once the slab has reached its
// high-water mark, a churn-shaped round allocates nothing, with the
// advertiser lists kept (asked for one advertiser's ads per round, as a
// Throttled engine asks) or not.
func TestClickSimSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	for _, indexed := range []bool{false, true} {
		s := newClickStream()
		cs := NewClickSim(rand.New(rand.NewSource(1)), 0.3, 20)
		var ads []OutstandingAd
		round := func(r int) {
			s.round(cs, r)
			if indexed {
				ads = cs.AppendOutstanding(ads[:0], s.adv[(r%streamRounds)*streamPerRound], r)
			}
		}
		r := 0
		for ; r < 200; r++ {
			round(r)
		}
		if avg := testing.AllocsPerRun(500, func() { round(r); r++ }); avg != 0 {
			t.Fatalf("indexed %v: steady-state round allocates %v times, want 0", indexed, avg)
		}
	}
}
