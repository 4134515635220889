package shard

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"sharedwd/internal/auction"
	"sharedwd/internal/bitset"
	"sharedwd/internal/workload"
)

// phraseWorkload is a workload of the given phrases (advertiser lists over
// n advertisers) and search rates: all assign reads.
func phraseWorkload(n int, rates []float64, phrases ...[]int) *workload.Workload {
	w := &workload.Workload{
		Advertisers: make([]auction.Advertiser, n),
		Rates:       rates,
		Interests:   make([]bitset.Set, len(phrases)),
	}
	for q, advs := range phrases {
		w.Interests[q] = bitset.FromIndices(n, advs...)
	}
	return w
}

// benchUniverse is a benchmark universe: 400×24 (the serving workloads'),
// or 2000×64 over 8 topics.
func benchUniverse(advertisers, phrases int, seed int64) *workload.Workload {
	cfg := workload.DefaultConfig()
	if advertisers != cfg.NumAdvertisers {
		cfg.NumAdvertisers, cfg.NumPhrases, cfg.NumTopics = advertisers, phrases, 8
	}
	cfg.Seed = seed
	return workload.Generate(cfg)
}

// TestAssignGolden pins the fragment partition on the benchmark's universes
// to the placements the planner-based partitioner (a signature bitset per
// advertiser, grouped into fragments by key) computed before assign
// replaced it: digit q is phrase q's shard.
func TestAssignGolden(t *testing.T) {
	for _, tc := range []struct {
		advertisers, phrases int
		seed                 int64
		shards               int
		want                 string
	}{
		{400, 24, 1, 2, "011101010100011100011100"},
		{400, 24, 1, 3, "012122012122012120012120"},
		{400, 24, 1, 4, "012312332312312023310312"},
		{400, 24, 2, 2, "011101011000011101001100"},
		{400, 24, 2, 3, "012221012121012121002121"},
		{400, 24, 2, 4, "012312332312312012312310"},
		{2000, 64, 1, 2, "0111001100100111001000111010001100110011001010111010001101100011"},
		{2000, 64, 1, 3, "0122121001221200012212000121120001221201012212010122120101221101"},
		{2000, 64, 1, 4, "0123323211231032012310320123103201231033012310320123103201231032"},
		{2000, 64, 2, 2, "0111010101010101001100010110010101110101010101010101000101010101"},
		{2000, 64, 2, 3, "0122121201210210012210120021121000221210012210100122121000221210"},
		{2000, 64, 2, 4, "0123323121233210213130102023301021233010212330102123301021233010"},
	} {
		got := ""
		for _, s := range assign(benchUniverse(tc.advertisers, tc.phrases, tc.seed), tc.shards) {
			got += strconv.Itoa(s)
		}
		if got != tc.want {
			t.Errorf("%d×%d seed %d, %d shards: got %s, want %s", tc.advertisers, tc.phrases, tc.seed, tc.shards, got, tc.want)
		}
	}
}

func TestAssignCoLocatesFragments(t *testing.T) {
	// Two independent fragment clusters: phrases {0,1} share advertisers
	// {0,1}, phrases {2,3} share {4,5}. Two shards must separate the
	// clusters, not split one.
	got := assign(phraseWorkload(8, []float64{1, 1, 1, 1}, []int{0, 1, 2}, []int{0, 1, 3}, []int{4, 5, 6}, []int{4, 5, 7}), 2)
	if got[0] != got[1] || got[2] != got[3] {
		t.Fatalf("fragment cluster split across shards: %v", got)
	}
	if got[0] == got[2] {
		t.Fatalf("both clusters on one shard: %v", got)
	}
}

func TestAssignBalancedAndTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const nAdv, nPhrases = 60, 40
	rates := make([]float64, nPhrases)
	phrases := make([][]int, nPhrases)
	for q := range phrases {
		phrases[q] = rng.Perm(nAdv)[:3+rng.Intn(8)]
		rates[q] = 0.05 + 0.9*rng.Float64()
	}
	w := phraseWorkload(nAdv, rates, phrases...)
	for _, shards := range []int{1, 2, 4, 8} {
		got := assign(w, shards)
		if len(got) != nPhrases {
			t.Fatalf("%d shards: %d assignments", shards, len(got))
		}
		load := make([]float64, shards)
		count := make([]int, shards)
		total, maxWeight := 0.0, 0.0
		for q, s := range got {
			if s < 0 || s >= shards {
				t.Fatalf("%d shards: phrase %d assigned to %d", shards, q, s)
			}
			weight := rates[q] * float64(len(phrases[q]))
			load[s] += weight
			total += weight
			maxWeight = max(maxWeight, weight)
			count[s]++
		}
		// The balance cap admits one average phrase of slack above the
		// lightest shard at placement time, plus the placed phrase itself.
		minLoad, maxLoad := load[0], load[0]
		for _, l := range load[1:] {
			minLoad, maxLoad = min(minLoad, l), max(maxLoad, l)
		}
		if maxLoad > minLoad+total/nPhrases+maxWeight+1e-9 {
			t.Fatalf("%d shards: loads %v exceed balance bound", shards, load)
		}
		for s, c := range count {
			if c == 0 {
				t.Fatalf("%d shards: shard %d empty (%v)", shards, s, count)
			}
		}
		if again := assign(w, shards); !reflect.DeepEqual(got, again) {
			t.Fatalf("%d shards: non-deterministic assignment", shards)
		}
	}
}

// TestAssignFillsEmptyShards: when the greedy leaves a shard empty, it
// takes the lightest phrase of a shard holding two or more, and the
// heaviest phrase stays where it was placed.
func TestAssignFillsEmptyShards(t *testing.T) {
	// Phrase 0 outweighs the cap, so phrases 1–3 (rate 0, same advertisers)
	// all follow each other onto shard 1 and shard 2 receives nothing.
	all := []int{0, 1, 2}
	got := assign(phraseWorkload(3, []float64{0.9, 0, 0, 0}, all, all, all, all), 3)
	if want := []int{0, 2, 1, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func BenchmarkAssign(b *testing.B) {
	for _, u := range []struct {
		name                 string
		advertisers, phrases int
	}{{"400x24", 400, 24}, {"2000x64", 2000, 64}} {
		w := benchUniverse(u.advertisers, u.phrases, 1)
		b.Run(u.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				assign(w, 2)
			}
		})
	}
}
