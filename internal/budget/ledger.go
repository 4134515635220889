package budget

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// Ledger is the central cross-shard budget authority for sharded serving.
// When auctions for the same advertiser run on different engine shards,
// each shard charges clicks against this shared ledger instead of its
// private spend table, so Section IV's invariant — an advertiser never pays
// more than its stated budget β — holds globally and exactly, not just
// per shard.
//
// Every charge is a single combined reserve-and-settle: TryCharge
// atomically checks the remaining budget and deducts the price in one
// compare-and-swap on the float64 bit pattern, so two shards racing to
// charge the last dollar can never both win. There are no locks and no
// per-round barriers; a charge is one CAS in the common case.
//
// Thread safety: all methods are safe for concurrent use by any number of
// goroutines.
type Ledger struct {
	// remaining[i] and spent[i] hold math.Float64bits of the advertiser's
	// remaining budget and cumulative settled spend.
	remaining []atomic.Uint64
	spent     []atomic.Uint64
	// charged is nil until a Pacer attaches; then it holds one bit per
	// advertiser, set by every charge that moved spend and cleared when the
	// pacer drains it at its next sync. It is how the pacer finds the
	// advertisers whose spend changed without reading every one.
	charged atomic.Pointer[chargedSet]
}

// chargedSet is the ledger's charged-since-last-drain bitset.
type chargedSet struct{ words []atomic.Uint64 }

// attachPacer allocates the charged bitset. It fails when another pacer
// already drains this ledger: each drain clears the bits, so two drainers
// would each miss the other's charges.
func (l *Ledger) attachPacer() error {
	set := &chargedSet{words: make([]atomic.Uint64, (len(l.remaining)+63)/64)}
	if !l.charged.CompareAndSwap(nil, set) {
		return fmt.Errorf("budget: ledger already drained by another pacer")
	}
	return nil
}

// drainCharged calls fn for every advertiser charged since the last drain,
// in ascending ID order, and clears their bits. A charge that lands while
// the drain runs is either seen now or left set for the next drain. Only
// the attached pacer calls it.
func (l *Ledger) drainCharged(fn func(i int)) {
	set := l.charged.Load()
	for w := range set.words {
		word := &set.words[w]
		if word.Load() == 0 {
			continue
		}
		for b := word.Swap(0); b != 0; b &= b - 1 {
			fn(w<<6 | bits.TrailingZeros64(b))
		}
	}
}

// NewLedger creates a ledger with the given initial budgets, indexed by
// advertiser ID. Negative budgets are treated as zero.
func NewLedger(budgets []float64) *Ledger {
	l := &Ledger{
		remaining: make([]atomic.Uint64, len(budgets)),
		spent:     make([]atomic.Uint64, len(budgets)),
	}
	for i, b := range budgets {
		if b < 0 {
			b = 0
		}
		l.remaining[i].Store(math.Float64bits(b))
	}
	return l
}

// N returns the number of advertisers the ledger tracks.
func (l *Ledger) N() int { return len(l.remaining) }

// Remaining returns advertiser i's current remaining budget.
func (l *Ledger) Remaining(i int) float64 {
	return math.Float64frombits(l.remaining[i].Load())
}

// Spent returns advertiser i's cumulative settled spend.
func (l *Ledger) Spent(i int) float64 {
	return math.Float64frombits(l.spent[i].Load())
}

// TotalSpent returns the sum of settled spend across all advertisers.
func (l *Ledger) TotalSpent() float64 {
	total := 0.0
	for i := range l.spent {
		total += math.Float64frombits(l.spent[i].Load())
	}
	return total
}

// TryCharge atomically reserves and settles price against advertiser i's
// remaining budget. It returns true and deducts the price when the budget
// covers it (within the same 1e-9 accounting epsilon the single-engine path
// uses), and false — charging nothing — otherwise. The check and the
// deduction are one atomic step: concurrent charges from different shards
// serialize through the CAS, so cumulative spend can never exceed the
// initial budget (plus deposits) by more than the epsilon.
func (l *Ledger) TryCharge(i int, price float64) bool {
	if price <= 0 {
		return price == 0
	}
	for {
		oldBits := l.remaining[i].Load()
		old := math.Float64frombits(oldBits)
		if price > old+1e-9 {
			return false
		}
		neu := old - price
		if neu < 0 {
			neu = 0
		}
		if l.remaining[i].CompareAndSwap(oldBits, math.Float64bits(neu)) {
			l.atomicAdd(&l.spent[i], price)
			// The bit goes up after the spend: a drain that sees it also
			// sees the spend it stands for.
			if set := l.charged.Load(); set != nil {
				set.mark(i)
			}
			return true
		}
	}
}

// Deposit atomically raises advertiser i's remaining budget by amount
// (mid-run budget top-ups). Negative or zero amounts are ignored.
func (l *Ledger) Deposit(i int, amount float64) {
	if amount <= 0 {
		return
	}
	l.atomicAdd(&l.remaining[i], amount)
}

func (*Ledger) atomicAdd(a *atomic.Uint64, x float64) {
	for {
		oldBits := a.Load()
		neu := math.Float64frombits(oldBits) + x
		if a.CompareAndSwap(oldBits, math.Float64bits(neu)) {
			return
		}
	}
}

// mark sets advertiser i's bit. The module's Go version predates
// atomic.Uint64.Or, so this is a load and a compare-and-swap, which also
// skips the write when the bit is already set.
func (c *chargedSet) mark(i int) {
	w, bit := &c.words[i>>6], uint64(1)<<(i&63)
	for {
		old := w.Load()
		if old&bit != 0 || w.CompareAndSwap(old, old|bit) {
			return
		}
	}
}
