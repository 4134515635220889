package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"sharedwd/internal/auction"
	"sharedwd/internal/bitset"
)

func traceFixture(t testing.TB) (*Workload, *Trace) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NumAdvertisers = 12
	cfg.NumPhrases = 4
	cfg.Seed = 3
	w := Generate(cfg)
	return w, Record(w, 10, 0.1)
}

func TestRecordShape(t *testing.T) {
	w, tr := traceFixture(t)
	if len(tr.Rounds) != 10 {
		t.Fatalf("rounds = %d", len(tr.Rounds))
	}
	if tr.NumAdvertisers != len(w.Advertisers) || tr.NumPhrases != len(w.Interests) {
		t.Fatalf("dims = %d/%d", tr.NumAdvertisers, tr.NumPhrases)
	}
	// Bid walks must actually appear across rounds.
	same := true
	for i := range tr.Rounds[0].Bids {
		if tr.Rounds[0].Bids[i] != tr.Rounds[9].Bids[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("bids did not change over the trace")
	}
}

func TestTraceCSVRoundTrip(t *testing.T) {
	_, tr := traceFixture(t)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTraceCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumPhrases != tr.NumPhrases || back.NumAdvertisers != tr.NumAdvertisers {
		t.Fatalf("dims %d/%d vs %d/%d", back.NumPhrases, back.NumAdvertisers, tr.NumPhrases, tr.NumAdvertisers)
	}
	if len(back.Rounds) != len(tr.Rounds) {
		t.Fatalf("rounds %d vs %d", len(back.Rounds), len(tr.Rounds))
	}
	for r := range tr.Rounds {
		for q := range tr.Rounds[r].Occurring {
			if back.Rounds[r].Occurring[q] != tr.Rounds[r].Occurring[q] {
				t.Fatalf("round %d occurrence mismatch", r)
			}
		}
		for i := range tr.Rounds[r].Bids {
			if back.Rounds[r].Bids[i] != tr.Rounds[r].Bids[i] {
				t.Fatalf("round %d bid %d mismatch", r, i)
			}
		}
	}
}

func TestReadTraceCSVRejectsCorruption(t *testing.T) {
	cases := []string{
		"",                               // no header
		"foo,bar,bid0\n",                 // bad header
		"round,occurring,bid0\n0,2,1\n",  // bad flag
		"round,occurring,bid0\n0,10,x\n", // bad bid
		"round,occurring,bid0\n0,10\n",   // short row
		"round,occurring,bid0\n0,10,1\n1,100,1\n", // width change
		"round,occurring,bid0\n0,,1\n1,01,2\n",    // width change from zero
		"round,occurring,bid0\nxyz,10,1\n",        // round not a number
		"round,occurring,bid0\n-5,10,1\n",         // negative round
		"round,occurring,bid0\n1,10,1\n",          // first row numbered 1
		"round,occurring,bid0\n0,10,NaN\n",        // NaN bid
		"round,occurring,bid0\n0,10,+Inf\n",       // infinite bid
		"round,occurring,bid0\n0,10,-1\n",         // negative bid
	}
	for i, c := range cases {
		if _, err := ReadTraceCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestApplyInstallsBids(t *testing.T) {
	advertisers := []auction.Advertiser{
		{ID: 0, Bid: 1, Quality: 1, Budget: 10},
		{ID: 1, Bid: 2, Quality: 1, Budget: 10},
	}
	all := bitset.FromIndices(2, 0, 1)
	w, err := NewCustom(advertisers, []bitset.Set{all}, []float64{1}, []float64{0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trace{
		NumPhrases:     1,
		NumAdvertisers: 2,
		Rounds: []TraceRound{
			{Occurring: []bool{true}, Bids: []float64{7, 8}},
		},
	}
	occ := tr.Apply(w, 0)
	if !occ[0] {
		t.Fatal("occurrence not applied")
	}
	if w.Advertisers[0].Bid != 7 || w.Advertisers[1].Bid != 8 {
		t.Fatalf("bids = %v, %v", w.Advertisers[0].Bid, w.Advertisers[1].Bid)
	}
	// Mutating the returned vector must not corrupt the trace.
	occ[0] = false
	if !tr.Rounds[0].Occurring[0] {
		t.Fatal("Apply aliased the trace's occurrence slice")
	}
}

// FuzzReadTraceCSV feeds ReadTraceCSV arbitrary bytes. It must not panic,
// and whatever it parses must have every round of the header's width and
// survive WriteCSV and a second ReadTraceCSV with the same occurrences and
// bit-equal bids.
func FuzzReadTraceCSV(f *testing.F) {
	_, tr := traceFixture(f)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("round,occurring,bid0\n0,,1\n1,01,2\n"))
	f.Add([]byte("round,occurring,bid0,bid1\n0,1,-0, NaN\n1,0,+Inf,0x1p-2\n"))
	f.Add([]byte("round,occurring,bid0\n\"0\",\"10\",\"1e400\"\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTraceCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		for r, round := range tr.Rounds {
			if len(round.Occurring) != tr.NumPhrases || len(round.Bids) != tr.NumAdvertisers {
				t.Fatalf("round %d has width %d×%d, trace %d×%d", r, len(round.Occurring), len(round.Bids), tr.NumPhrases, tr.NumAdvertisers)
			}
			for i, b := range round.Bids {
				if !(b >= 0) || math.IsInf(b, 1) {
					t.Fatalf("round %d bid %d parsed as %v, want finite and ≥ 0", r, i, b)
				}
			}
		}
		var out bytes.Buffer
		if err := tr.WriteCSV(&out); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTraceCSV(&out)
		if err != nil {
			t.Fatalf("written trace does not read back: %v\n%s", err, out.Bytes())
		}
		if back.NumPhrases != tr.NumPhrases || back.NumAdvertisers != tr.NumAdvertisers || len(back.Rounds) != len(tr.Rounds) {
			t.Fatalf("read back %d×%d with %d rounds, want %d×%d with %d", back.NumPhrases, back.NumAdvertisers, len(back.Rounds), tr.NumPhrases, tr.NumAdvertisers, len(tr.Rounds))
		}
		for r, round := range tr.Rounds {
			for q, o := range round.Occurring {
				if back.Rounds[r].Occurring[q] != o {
					t.Fatalf("round %d occurrence %d changed", r, q)
				}
			}
			for i, b := range round.Bids {
				if got := back.Rounds[r].Bids[i]; math.Float64bits(got) != math.Float64bits(b) {
					t.Fatalf("round %d bid %d read back as %v, want %v", r, i, got, b)
				}
			}
		}
	})
}
