package workload

import (
	"math"
	"math/rand"
	"slices"
	"sort"
)

// Click is a realized click on a previously displayed ad.
type Click struct {
	Advertiser int
	Price      float64 // the per-click price fixed at auction time
	Displayed  int     // round the ad was shown
	Round      int     // round the click arrived
}

// OutcomeFunc decides a displayed ad's click fate deterministically:
// whether it is clicked and, if so, after how many rounds. It must be a
// pure function of its arguments so that runs that display the same ads
// (e.g. a sharded and a single-engine run over the same workload) see the
// same clicks regardless of how displays are distributed over simulators.
// A returned delay < 1 or ≥ the simulator's horizon means no click: delays
// of 0 cannot be observed (the display round's Advance has already run),
// and the simulator never delivers past its horizon.
type OutcomeFunc func(advertiser int, price, ctr float64, round int) (clicked bool, delay int)

// OutstandingAd is a displayed ad awaiting a click: the price a click would
// cost and the (current) probability that the click eventually happens.
// budget.OutstandingAd is this type.
type OutstandingAd struct {
	Price float64
	CTR   float64
}

// ClickSim simulates delayed clicks: a displayed ad with click-through rate
// ctr is eventually clicked with probability ctr; the delay is geometric
// with per-round continuation (1 − Hazard), conditioned on the observable
// window {1, …, Horizon−1}. Delay 0 is excluded by construction — the
// display round's Advance has already run when the ad is registered, so a
// same-round click could never be delivered (see OutcomeFunc) — and the
// normalization keeps the realized click frequency at ctr rather than
// losing the truncated tail. The probability that an ad of age a is still
// going to be clicked decays like ctr·(1−Hazard)^a (see RemainingCTR, the
// Section IV model; exact up to the horizon-truncation correction).
//
// Each displayed ad is stored once, in a slab with a free list, until it
// resolves: at its click round if it will be clicked, else at display +
// Horizon, when it expires. It is filed in the timing-wheel bucket of its
// resolve round, so Advance touches only the ads that resolve, and on its
// advertiser's list in display order, so Outstanding reads only that
// advertiser's ads. A round costs O(events), not O(pending ads), and the
// steady state allocates nothing. The advertiser lists are built at the
// first Outstanding call and kept from then on, so a simulator nobody asks
// for outstanding ads — a Naive engine's — never pays for them. Until then
// an ad that will not be clicked, which only has to expire, is kept in a
// smaller record in a display-order queue instead of the slab (cold), and
// the first Outstanding call moves those into the slab.
type ClickSim struct {
	// Hazard is the per-round click probability given the ad will be
	// clicked and hasn't been yet. Read-only after NewClickSim.
	Hazard float64
	// Horizon is the age (in rounds) beyond which a click never arrives.
	// Read-only after NewClickSim.
	Horizon int

	rng     *rand.Rand
	outcome OutcomeFunc
	// z = 1 − (1−Hazard)^(Horizon−1) and logKeep = ln(1−Hazard) are
	// drawDelay's constants; decay[a] = (1−Hazard)^a for ages below the
	// horizon. Each is built from the expression drawDelay and RemainingCTR
	// would evaluate, so the bits are theirs.
	z, logKeep float64
	decay      []float64

	ads []ad // the slab
	// link[h] is the next ad after slot h in its wheel bucket, or the next
	// free slot; -1 ends a list. Kept beside the slab, it is dense enough
	// that walking a bucket stays in cache.
	link []int32
	free int32 // first free slot; -1 if none
	live int   // ads awaiting resolution
	seq  uint32

	// wheel[(wheelAt + r − next) mod len(wheel)] holds the ads that resolve
	// at round r, in display order, for r in [next, next+len(wheel)): next
	// is the first round no Advance has reached. It has Horizon+1 buckets,
	// so an ad displayed at the last advanced round or the one after always
	// fits. An ad resolving outside that span — displayed at an earlier
	// round, or far ahead, or before the first Advance — waits in side, in
	// display order, which Advance pops from and moves into the wheel as
	// the span reaches it.
	wheel   []adList
	wheelAt int
	next    int
	started bool
	side    []sideAd

	// cold holds, in display order, the ads displayed before the simulator
	// was indexed that will not be clicked: they expire Horizon rounds
	// after display, which is all they do unless index moves them into the
	// slab. coldRuns splits cold into its display rounds, oldest first, so
	// Advance expires a round's worth at a time. An ad displayed at a round
	// before the newest run's goes to the slab, keeping cold in order. The
	// slab holds every ad displayed in the last Horizon rounds, so it grows
	// with the auction rate, and most ads are never clicked: a Naive
	// engine's cold queue is most of its pending ads.
	cold     fifo[coldAd]
	coldRuns fifo[coldRun]

	// byAdv[i] is the first of advertiser i's ads in display order, -1 if
	// it has none; it and the lists are kept only once indexed. Each
	// advertiser's ads form a circular list through advPrev/advNext, so the
	// first one's advPrev is the last.
	byAdv   []int32
	indexed bool

	// clickBuf backs Advance's result so steady-state rounds do not
	// allocate; it is overwritten by the next Advance. clickSeq[j] is
	// clickBuf[j]'s display sequence number, to merge clicks popped from
	// more than one list into display order.
	clickBuf []Click
	clickSeq []uint32
}

// ad is one displayed ad in the slab; ads link by slab index. Its resolve
// round is the bucket (or sideAd) that holds it, and it is a click iff it
// resolves before display + Horizon.
type ad struct {
	price, ctr0 float64
	displayed   int
	// seq numbers displays in call order, compared modulo 2^32: it merges
	// clicks popped from different lists back into display order, and
	// orders the advertiser lists when they are built.
	seq        uint32
	advertiser int32
	// advPrev and advNext link the advertiser's list once indexed.
	advPrev, advNext int32
}

// coldAd is an ad in ClickSim.cold: 24 bytes, against 44 for a slab ad
// and its link. Its display round is its run's.
type coldAd struct {
	price, ctr0 float64
	seq         uint32
	advertiser  int32
}

// coldRun is n consecutive ads of ClickSim.cold, all displayed in round.
type coldRun struct {
	round, n int
}

// adList is a list of slab slots linked through ClickSim.link.
type adList struct{ head, tail int32 }

var emptyList = adList{-1, -1}

// sideAd is an ad waiting outside the wheel's span, with its resolve round.
type sideAd struct {
	h       int32
	resolve int
}

// NewClickSim creates a simulator. hazard must be in (0, 1]; horizon ≥ 1.
func NewClickSim(rng *rand.Rand, hazard float64, horizon int) *ClickSim {
	if hazard <= 0 || hazard > 1 || horizon < 1 {
		panic("workload: invalid click simulator parameters")
	}
	cs := &ClickSim{
		Hazard: hazard, Horizon: horizon, rng: rng,
		z:       1 - math.Pow(1-hazard, float64(horizon-1)),
		logKeep: math.Log(1 - hazard),
		decay:   make([]float64, horizon),
		free:    -1,
		wheel:   make([]adList, horizon+1),
	}
	for a := range cs.decay {
		cs.decay[a] = math.Pow(1-hazard, float64(a))
	}
	for b := range cs.wheel {
		cs.wheel[b] = emptyList
	}
	return cs
}

// SetOutcome replaces the simulator's random draws with a deterministic
// outcome function (nil restores random draws). With an outcome set,
// Display consumes nothing from the random stream.
func (cs *ClickSim) SetOutcome(f OutcomeFunc) { cs.outcome = f }

// Display registers a shown ad: the advertiser, the price a click will
// cost, the click-through rate of (advertiser, slot), and the display
// round. The click outcome and delay are drawn immediately (but revealed
// only as rounds advance). Advertisers are indexed from 0.
func (cs *ClickSim) Display(advertiser int, price, ctr float64, round int) {
	resolve := round + cs.Horizon // expiry, unless a click comes first
	if cs.outcome != nil {
		if clicked, d := cs.outcome(advertiser, price, ctr, round); clicked && d >= 1 && d < cs.Horizon {
			resolve = round + d
		}
	} else if cs.rng.Float64() < ctr {
		if d := cs.drawDelay(); d > 0 {
			resolve = round + d
		}
	}
	if resolve < 0 {
		resolve = round + cs.Horizon // a negative click round counts as no click
	}
	cs.live++
	if runs := cs.coldRuns.n; !cs.indexed && resolve == round+cs.Horizon &&
		(runs == 0 || round >= cs.coldRuns.at(runs-1).round) {
		cs.cold.push(coldAd{price: price, ctr0: ctr, seq: cs.seq, advertiser: int32(advertiser)})
		if runs > 0 && cs.coldRuns.at(runs-1).round == round {
			cs.coldRuns.at(runs-1).n++
		} else {
			cs.coldRuns.push(coldRun{round: round, n: 1})
		}
		cs.seq++
		return
	}

	h := cs.alloc()
	a := &cs.ads[h]
	a.price, a.ctr0, a.displayed = price, ctr, round
	a.seq, a.advertiser = cs.seq, int32(advertiser)
	cs.seq++
	if cs.indexed {
		cs.linkAdvertiser(h)
	}
	cs.file(h, resolve)
}

// alloc takes a slot off the free list, growing the slab if it is empty.
func (cs *ClickSim) alloc() int32 {
	h := cs.free
	if h < 0 {
		h = cs.grow()
	}
	cs.free = cs.link[h]
	return h
}

// file puts slot h in the wheel bucket of its resolve round, or in side
// when that round is outside the wheel's span.
func (cs *ClickSim) file(h int32, resolve int) {
	if cs.started && resolve >= cs.next && resolve-cs.next < len(cs.wheel) {
		cs.push(&cs.wheel[cs.slot(resolve)], h)
	} else {
		cs.side = append(cs.side, sideAd{h, resolve})
	}
}

// grow adds slab slots when the free list is empty, an eighth more at a
// time, so the slab stays within an eighth of its high-water mark; the new
// slots become the free list, and grow returns its first.
func (cs *ClickSim) grow() int32 {
	n := len(cs.ads)
	size := n + max(16, n/8)
	ads, link := make([]ad, size), make([]int32, size)
	copy(ads, cs.ads)
	copy(link, cs.link)
	cs.ads, cs.link = ads, link
	for h := len(ads) - 1; h >= n; h-- {
		link[h] = cs.free
		cs.free = int32(h)
	}
	return cs.free
}

// push appends slot h to list l.
func (cs *ClickSim) push(l *adList, h int32) {
	cs.link[h] = -1
	if l.tail >= 0 {
		cs.link[l.tail] = h
	} else {
		l.head = h
	}
	l.tail = h
}

// slot is the wheel bucket of round r, which must be in the wheel's span.
func (cs *ClickSim) slot(r int) int {
	b := cs.wheelAt + (r - cs.next)
	if b >= len(cs.wheel) {
		b -= len(cs.wheel)
	}
	return b
}

// drawDelay samples a click delay from the geometric hazard distribution
// P(delay = k) ∝ Hazard·(1−Hazard)^(k−1) conditioned on the observable
// support {1, …, Horizon−1}, via a single inverse-CDF uniform draw. The
// conditioning matters twice over: delay 0 is unobservable (the engines run
// Advance before Display within a round, so a delay-0 click would be
// silently dropped — the lost-click bias this replaces), and renormalizing
// instead of discarding the ≥ Horizon tail keeps the eventual click
// probability of a displayed ad at exactly its ctr. Returns 0 — no click —
// when the support is empty (Horizon < 2).
func (cs *ClickSim) drawDelay() int {
	if cs.Horizon < 2 {
		return 0
	}
	if cs.Hazard >= 1 {
		return 1
	}
	// z = P(1 ≤ delay ≤ Horizon−1) under the unconditioned geometric; the
	// smallest k with CDF(k)/z > u is 1 + ⌊ln(1−u·z)/ln(1−Hazard)⌋.
	u := cs.rng.Float64()
	delay := 1 + int(math.Log1p(-u*cs.z)/cs.logKeep)
	if delay < 1 {
		delay = 1
	}
	if delay >= cs.Horizon {
		delay = cs.Horizon - 1
	}
	return delay
}

// Advance reveals the clicks that have arrived by the given round and drops
// ads past the horizon. Rounds must be advanced in non-decreasing order,
// but gaps are allowed: a click whose round falls strictly inside a gap is
// delivered at the next Advance, with Click.Round reporting the round the
// click actually arrived (≤ the advanced round), never silently dropped.
// Clicks come out in display order. The returned slice is reused by the
// next Advance call; callers that retain clicks across rounds must copy
// them.
//
// Advance pops the wheel buckets from the first round not yet reached up
// to round (at most the whole wheel), and side when it is not empty; in
// steady state that is one bucket.
func (cs *ClickSim) Advance(round int) []Click {
	clicks, seqs := cs.clickBuf[:0], cs.clickSeq[:0]
	lists := 0 // lists that gave up a click
	if cs.started {
		for r := cs.next; r <= round && r-cs.next < len(cs.wheel); r++ {
			l := &cs.wheel[cs.slot(r)]
			n := len(clicks)
			for h := l.head; h >= 0; {
				next := cs.link[h]
				if a := &cs.ads[h]; r-a.displayed < cs.Horizon {
					clicks = append(clicks, a.click(r))
					seqs = append(seqs, a.seq)
				}
				cs.release(h)
				h = next
			}
			*l = emptyList
			if len(clicks) > n {
				lists++
			}
		}
	}
	cs.clickBuf, cs.clickSeq = clicks, seqs
	// The wheel's span moves past round, then side gives up what resolves
	// by round and what the span now covers.
	if !cs.started || round >= cs.next {
		if cs.started {
			cs.wheelAt = (cs.wheelAt + (round+1-cs.next)%len(cs.wheel)) % len(cs.wheel)
		}
		cs.next, cs.started = round+1, true
	}
	if len(cs.side) > 0 {
		n := len(cs.clickBuf)
		cs.drainSide(round)
		if len(cs.clickBuf) > n {
			lists++
		}
	}
	for cs.coldRuns.n > 0 {
		run := cs.coldRuns.at(0)
		if run.round+cs.Horizon > round {
			break
		}
		cs.cold.pop(run.n)
		cs.live -= run.n
		cs.coldRuns.pop(1)
	}
	if lists > 1 {
		sort.Sort(clickOrder{cs.clickBuf, cs.clickSeq})
	}
	return cs.clickBuf
}

// click is the ad's click, arriving at round r.
func (a *ad) click(r int) Click {
	return Click{Advertiser: int(a.advertiser), Price: a.price, Displayed: a.displayed, Round: r}
}

// release frees ad h's slab slot, taking it off its advertiser's list.
func (cs *ClickSim) release(h int32) {
	if cs.indexed {
		cs.unlink(h)
	}
	cs.link[h] = cs.free
	cs.free = h
	cs.live--
}

// drainSide resolves side's ads that resolve by round — each is a click iff
// it resolves before display + Horizon — and moves those the wheel's span
// now covers into their buckets. side is in display order, so each bucket
// it appends to stays in display order: a bucket cannot yet hold an ad
// displayed after one that waited in side for it.
func (cs *ClickSim) drainSide(round int) {
	keep := cs.side[:0]
	for _, s := range cs.side {
		switch {
		case s.resolve <= round:
			if a := &cs.ads[s.h]; s.resolve-a.displayed < cs.Horizon {
				cs.clickBuf = append(cs.clickBuf, a.click(s.resolve))
				cs.clickSeq = append(cs.clickSeq, a.seq)
			}
			cs.release(s.h)
		case s.resolve >= cs.next && s.resolve-cs.next < len(cs.wheel):
			cs.push(&cs.wheel[cs.slot(s.resolve)], s.h)
		default:
			keep = append(keep, s)
		}
	}
	cs.side = keep
}

// clickOrder sorts one Advance's clicks into display order.
type clickOrder struct {
	clicks []Click
	seq    []uint32
}

func (o clickOrder) Len() int           { return len(o.clicks) }
func (o clickOrder) Less(i, j int) bool { return int32(o.seq[i]-o.seq[j]) < 0 }
func (o clickOrder) Swap(i, j int) {
	o.clicks[i], o.clicks[j] = o.clicks[j], o.clicks[i]
	o.seq[i], o.seq[j] = o.seq[j], o.seq[i]
}

// index builds the advertiser lists from the ads pending now, each in
// display order; Display and release keep them from then on. The cold ads
// move into the slab first, filed at their expiry, since Outstanding reads
// them too.
func (cs *ClickSim) index() {
	for cs.coldRuns.n > 0 {
		run := *cs.coldRuns.at(0)
		for k := 0; k < run.n; k++ {
			c := cs.cold.at(k)
			h := cs.alloc()
			cs.ads[h] = ad{price: c.price, ctr0: c.ctr0, displayed: run.round, seq: c.seq, advertiser: c.advertiser}
			cs.file(h, run.round+cs.Horizon)
		}
		cs.cold.pop(run.n)
		cs.coldRuns.pop(1)
	}
	cs.cold, cs.coldRuns = fifo[coldAd]{}, fifo[coldRun]{}
	cs.indexed = true
	pending := make([]int32, 0, cs.live)
	for _, l := range cs.wheel {
		for h := l.head; h >= 0; h = cs.link[h] {
			pending = append(pending, h)
		}
	}
	for _, s := range cs.side {
		pending = append(pending, s.h)
	}
	slices.SortFunc(pending, func(a, b int32) int { return int(int32(cs.ads[a].seq - cs.ads[b].seq)) })
	for _, h := range pending {
		cs.linkAdvertiser(h)
	}
}

// linkAdvertiser appends ad h to its advertiser's list.
func (cs *ClickSim) linkAdvertiser(h int32) {
	a := &cs.ads[h]
	adv := int(a.advertiser)
	if adv >= len(cs.byAdv) { // grow by an eighth at least
		byAdv := make([]int32, max(adv+1, len(cs.byAdv)+len(cs.byAdv)/8))
		copy(byAdv, cs.byAdv)
		for i := len(cs.byAdv); i < len(byAdv); i++ {
			byAdv[i] = -1
		}
		cs.byAdv = byAdv
	}
	if first := cs.byAdv[adv]; first < 0 {
		a.advPrev, a.advNext = h, h
		cs.byAdv[adv] = h
	} else {
		last := cs.ads[first].advPrev
		a.advPrev, a.advNext = last, first
		cs.ads[last].advNext = h
		cs.ads[first].advPrev = h
	}
}

// unlink takes ad h off its advertiser's list.
func (cs *ClickSim) unlink(h int32) {
	a := &cs.ads[h]
	if a.advNext == h {
		cs.byAdv[a.advertiser] = -1
		return
	}
	cs.ads[a.advPrev].advNext = a.advNext
	cs.ads[a.advNext].advPrev = a.advPrev
	if cs.byAdv[a.advertiser] == h {
		cs.byAdv[a.advertiser] = a.advNext
	}
}

// Outstanding returns, for budget throttling, every pending ad of the given
// advertiser as (price, remaining click probability at the given round), in
// display order, skipping those with no price or no remaining probability.
// It walks only that advertiser's ads.
func (cs *ClickSim) Outstanding(advertiser, round int) (prices, ctrs []float64) {
	for _, a := range cs.AppendOutstanding(nil, advertiser, round) {
		prices = append(prices, a.Price)
		ctrs = append(ctrs, a.CTR)
	}
	return prices, ctrs
}

// AppendOutstanding appends what Outstanding(advertiser, round) returns to
// dst, one OutstandingAd per ad, and returns the extended slice.
func (cs *ClickSim) AppendOutstanding(dst []OutstandingAd, advertiser, round int) []OutstandingAd {
	first := cs.first(advertiser)
	for h := first; h >= 0; {
		a := &cs.ads[h]
		if rem := cs.remainingCTR(a, round); !(rem <= 0) {
			dst = append(dst, OutstandingAd{Price: a.price, CTR: rem})
		}
		if h = a.advNext; h == first {
			break
		}
	}
	return dst
}

// first is the first of the advertiser's ads in display order, or -1. It
// builds the advertiser lists if nothing has asked for them before.
func (cs *ClickSim) first(advertiser int) int32 {
	if !cs.indexed {
		cs.index()
	}
	if advertiser < 0 || advertiser >= len(cs.byAdv) {
		return -1
	}
	return cs.byAdv[advertiser]
}

// remainingCTR is RemainingCTR(a.ctr0, round − a.displayed, …) read from the
// decay table, bit for bit, or 0 for an ad Outstanding skips: free, never
// clickable, or at or past the horizon.
func (cs *ClickSim) remainingCTR(a *ad, round int) float64 {
	age := max(round-a.displayed, 0)
	if age >= len(cs.decay) || a.ctr0 <= 0 || a.price <= 0 {
		return 0
	}
	return a.ctr0 * cs.decay[age]
}

// PendingCount returns how many ads are still awaiting resolution.
func (cs *ClickSim) PendingCount() int { return cs.live }

// RemainingCTR is the Section IV model of the probability that an ad
// displayed with click-through rate ctr0 and now of the given age will
// still be clicked: ctr0·(1−hazard)^age, zero at or beyond the horizon.
// Under the simulator's horizon-conditioned delay draw this is exact up to
// the truncation correction (negligible whenever horizon ≫ 1/hazard).
func RemainingCTR(ctr0 float64, age int, hazard float64, horizon int) float64 {
	if age < 0 {
		age = 0
	}
	if age >= horizon || ctr0 <= 0 {
		return 0
	}
	return ctr0 * math.Pow(1-hazard, float64(age))
}

// fifo is a circular queue that allocates only when it is full, growing by
// an eighth, so a steady state allocates nothing.
type fifo[T any] struct {
	buf     []T
	head, n int
}

// at is the queue's i-th element from the front, for i < n.
func (f *fifo[T]) at(i int) *T {
	if i += f.head; i >= len(f.buf) {
		i -= len(f.buf)
	}
	return &f.buf[i]
}

// push appends v at the back.
func (f *fifo[T]) push(v T) {
	if f.n == len(f.buf) {
		buf := make([]T, f.n+max(16, f.n/8))
		k := copy(buf, f.buf[f.head:])
		copy(buf[k:], f.buf[:f.head])
		f.buf, f.head = buf, 0
	}
	f.n++
	*f.at(f.n - 1) = v
}

// pop drops the first k elements, k ≤ n.
func (f *fifo[T]) pop(k int) {
	f.n -= k
	if f.head += k; f.head >= len(f.buf) {
		f.head -= len(f.buf)
	}
}
