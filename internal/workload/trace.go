package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Trace is a recorded sequence of rounds — which phrases occurred and the
// full bid vector per round — so an experiment can be captured once and
// replayed bit-for-bit against different engine configurations (the
// standard way to compare policies on identical inputs).
type Trace struct {
	NumPhrases     int
	NumAdvertisers int
	Rounds         []TraceRound
}

// TraceRound is one recorded round.
type TraceRound struct {
	Occurring []bool
	Bids      []float64
}

// Record captures the workload's next `rounds` rounds (occurrences sampled
// from search rates, bids perturbed by walkScale between rounds) into a
// replayable trace. The workload's RNG advances exactly as a live run's
// would.
func Record(w *Workload, rounds int, walkScale float64) *Trace {
	tr := &Trace{
		NumPhrases:     w.Cfg.NumPhrases,
		NumAdvertisers: w.Cfg.NumAdvertisers,
		Rounds:         make([]TraceRound, 0, rounds),
	}
	for r := 0; r < rounds; r++ {
		tr.Rounds = append(tr.Rounds, TraceRound{
			Occurring: w.SampleRound(),
			Bids:      w.Bids(),
		})
		if walkScale > 0 {
			w.PerturbBids(walkScale)
		}
	}
	return tr
}

// WriteCSV serializes the trace: a header row, then one row per round with
// round index, a 0/1 occurrence string, and the bid vector.
func (tr *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"round", "occurring"}
	for i := 0; i < tr.NumAdvertisers; i++ {
		header = append(header, fmt.Sprintf("bid%d", i))
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for r, round := range tr.Rounds {
		occ := make([]byte, tr.NumPhrases)
		for q, o := range round.Occurring {
			if o {
				occ[q] = '1'
			} else {
				occ[q] = '0'
			}
		}
		row := []string{strconv.Itoa(r), string(occ)}
		for _, b := range round.Bids {
			row = append(row, strconv.FormatFloat(b, 'g', -1, 64))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadTraceCSV parses a trace written by WriteCSV, validating shape: every
// row is numbered with its index, as WriteCSV numbers it, and every bid is
// finite and non-negative.
func ReadTraceCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("workload: trace header: %w", err)
	}
	if len(header) < 3 || header[0] != "round" || header[1] != "occurring" {
		return nil, fmt.Errorf("workload: unrecognized trace header %v", header)
	}
	tr := &Trace{NumAdvertisers: len(header) - 2}
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("workload: trace row: %w", err)
		}
		if len(row) != len(header) {
			return nil, fmt.Errorf("workload: row has %d fields, want %d", len(row), len(header))
		}
		if want := strconv.Itoa(len(tr.Rounds)); row[0] != want {
			return nil, fmt.Errorf("workload: row numbered %q, want %s", row[0], want)
		}
		// The first row fixes the occurrence width, zero included.
		occStr := row[1]
		if len(tr.Rounds) == 0 {
			tr.NumPhrases = len(occStr)
		} else if len(occStr) != tr.NumPhrases {
			return nil, fmt.Errorf("workload: occurrence width %d, want %d", len(occStr), tr.NumPhrases)
		}
		round := TraceRound{
			Occurring: make([]bool, len(occStr)),
			Bids:      make([]float64, tr.NumAdvertisers),
		}
		for q, c := range occStr {
			switch c {
			case '1':
				round.Occurring[q] = true
			case '0':
			default:
				return nil, fmt.Errorf("workload: bad occurrence flag %q", c)
			}
		}
		for i, f := range row[2:] {
			b, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("workload: bid %d: %w", i, err)
			}
			if !(b >= 0) || math.IsInf(b, 1) {
				return nil, fmt.Errorf("workload: bid %d is %v, want finite and ≥ 0", i, b)
			}
			round.Bids[i] = b
		}
		tr.Rounds = append(tr.Rounds, round)
	}
	return tr, nil
}

// Apply installs round r's bids into the workload and returns the round's
// occurrence vector, so an engine can be stepped against the trace:
//
//	for r := range trace.Rounds {
//	    eng.Step(trace.Apply(w, r))
//	}
func (tr *Trace) Apply(w *Workload, r int) []bool {
	round := tr.Rounds[r]
	for i := range w.Advertisers {
		w.Advertisers[i].Bid = round.Bids[i]
	}
	occ := make([]bool, len(round.Occurring))
	copy(occ, round.Occurring)
	return occ
}
