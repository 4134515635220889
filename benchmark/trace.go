package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
)

// Spans wrap only calls the benchmark itself makes; spans inside the
// program are a later change. A root span (round, request, batch) is the
// benchmark's own operation; its children are the calls into the program.
// Spans of one operation share an id.

type spanKind uint8

const (
	spanRound   spanKind = iota // root on rounds-*: Step plus the untimed bid moves
	spanStep                    // core.Engine.Step
	spanMutate                  // workload bid moves between rounds (benchmark-driven)
	spanRequest                 // root on serve-*: from due or issue time to answer
	spanSubmit                  // the client or backend call that carries the request
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"round", "core.Step", "workload.mutate", "request", "submit"}
var spanParent = [numSpanKinds]string{"", "round", "round", "", "request"}

func (k spanKind) root() bool { return spanParent[k] == "" }

type span struct {
	kind       spanKind
	id         uint64
	start, end int64 // ns since the run's start
	// count is the work the span carried: auctions in a round, queries in a
	// request.
	count int64
	// inner is the latency the server reported for the request (ns), 0 when
	// the span has none: the part of a submit span spent behind the edge.
	inner int64
}

// traceBuf is a preallocated ring owned by one goroutine; when it wraps,
// the oldest spans are overwritten.
type traceBuf struct {
	spans []span
	next  int
	total int64
}

func newTraceBuf(capacity int) *traceBuf { return &traceBuf{spans: make([]span, capacity)} }

func (b *traceBuf) add(s span) {
	b.spans[b.next] = s
	b.next++
	if b.next == len(b.spans) {
		b.next = 0
	}
	b.total++
}

func (b *traceBuf) kept() []span {
	if b.total < int64(len(b.spans)) {
		return b.spans[:b.next]
	}
	return b.spans
}

// tracer hands one ring to each goroutine that records.
type tracer struct{ bufs []*traceBuf }

const traceRing = 1 << 15 // spans kept per run, shared out among the recording goroutines

func (t *tracer) buf(capacity int) *traceBuf {
	b := newTraceBuf(capacity)
	t.bufs = append(t.bufs, b)
	return b
}

// selfShare is the share of root-span time not covered by child spans: the
// benchmark's own time between calls into the program.
func (t *tracer) selfShare() float64 {
	var root, child int64
	for _, b := range t.bufs {
		for _, s := range b.kept() {
			if s.kind.root() {
				root += s.end - s.start
			} else {
				child += s.end - s.start
			}
		}
	}
	if root == 0 {
		return 0
	}
	return float64(root-child) / float64(root)
}

func (t *tracer) spanCount() int {
	n := 0
	for _, b := range t.bufs {
		n += len(b.kept())
	}
	return n
}

// write dumps the kept spans as JSON lines.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Name    string `json:"name"`
		Parent  string `json:"parent,omitempty"`
		ID      uint64 `json:"id"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
		Count   int64  `json:"count,omitempty"`
		InnerNS int64  `json:"server_ns,omitempty"`
	}
	for _, b := range t.bufs {
		for _, s := range b.kept() {
			if err := enc.Encode(line{spanNames[s.kind], spanParent[s.kind], s.id, s.start, s.end, s.count, s.inner}); err != nil {
				f.Close()
				return "", err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
