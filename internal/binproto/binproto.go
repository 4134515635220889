// Package binproto is the binary wire protocol of the network serving
// tier: a length-prefixed request/response framing over raw TCP, served
// alongside the HTTP/JSON tier against the same server.Backend. It exists
// because the JSON edge costs ~9× in per-connection throughput against
// in-process Submit (EXPERIMENTS.md "Network tier"); the binary codec
// removes the JSON encode/decode and the per-request HTTP machinery, and
// connection multiplexing removes the request-per-connection round-trip
// discipline — one socket carries many in-flight queries, pipelined, with
// out-of-order completion.
//
// # Wire format
//
// A connection opens with a 5-byte client preamble — the ASCII magic
// "SWDB" plus a version byte — so a stray HTTP request (or any other
// protocol) is rejected before the first frame. After that, both
// directions speak frames:
//
//	uint32  length   // big-endian; bytes that follow (type + id + payload)
//	byte    type     // frame type (request 0x01-0x03, response 0x81-0x83)
//	uint64  id       // request ID, chosen by the client, echoed by the server
//	...payload       // type-specific
//
// The request ID is the multiplexing key: the client may have many frames
// in flight on one socket, and the server answers each frame exactly once,
// in whatever order the backend resolves them. Request payloads:
//
//	query (0x01):  uint32 timeout_ms | uint16 len | query bytes
//	batch (0x02):  uint32 timeout_ms | uint16 count | count × (uint16 len | query bytes)
//	stats (0x03):  (empty)
//
// timeout_ms is the per-request deadline in milliseconds; 0 means the
// server's DefaultTimeout, and any request is clamped to MaxTimeout —
// exactly the X-Timeout discipline of the HTTP tier. Response payloads
// open with a status byte and a flags byte (bit 0 = retryable), encoding
// the serr taxonomy as typed statuses:
//
//	reply (0x81):        status | flags | body
//	batch reply (0x82):  status | flags | {uint16 count | count × (status | flags | body)}
//	stats reply (0x83):  status | flags | uint32 len | Metrics JSON
//
// where an OK body is a fixed-width server.Result —
//
//	uint32 phrase | uint16 shard | uint32 round | uint64 latency_ns |
//	uint16 nslots | nslots × (uint16 slot | uint32 advertiser | float64 price)
//
// — and an error body is uint16 len | message bytes. The stats reply
// carries the same exact-round-trip Metrics JSON the HTTP tier serves on
// /v1/stats, so one schema feeds every transport; query results round-trip
// exactly against the JSON wire schema (the conformance suite pins it).
//
// # Server shape
//
// The server runs one reader and one writer goroutine per connection. The
// reader parses frames from a reused read buffer and admits each into a
// bounded in-flight table (MaxInFlight per connection; overflow is
// answered immediately with the retryable StatusOverflow, and a reused
// in-flight ID is a protocol error), and submits every frame buffered in
// one read window to the backend with one SubmitAsync call. Completions
// append to a queue that the writer swaps out, encodes into a reused write
// buffer and flushes whole — the codec allocates nothing on the hot path.
// Shutdown follows the netserve drain contract: the listener stops
// accepting, every admitted frame is answered through the normal backend
// drain, the writer flushes, and only then do sockets close.
//
// # Client
//
// Client is the multiplexing dial-side: concurrent Submit/SubmitBatch
// calls share one socket, each tagged with a fresh request ID and parked
// on its own reply channel; a reader goroutine routes responses back by
// ID. Its writer yields once before it takes the shared write buffer, so
// concurrent callers' frames share one write. Statuses map back onto the
// serr sentinels, so errors.Is retry policies written against the
// in-process servers work unchanged over the wire.
package binproto

import (
	"context"
	"errors"
	"fmt"
	"time"

	"sharedwd/internal/serr"
)

// Protocol identity: the connection preamble a client sends before its
// first frame.
const (
	// Magic is the 4-byte connection preamble.
	Magic = "SWDB"
	// Version is the protocol version byte following the magic.
	Version byte = 1
)

// Frame types. Requests flow client → server; responses echo the request's
// ID with the corresponding response type.
const (
	ftQuery      byte = 0x01
	ftBatch      byte = 0x02
	ftStats      byte = 0x03
	ftReply      byte = 0x81
	ftBatchReply byte = 0x82
	ftStatsReply byte = 0x83
)

// Status bytes: the serr taxonomy on the wire. Every response opens with
// one, plus a flags byte whose bit 0 (FlagRetryable) tells the client
// whether retrying the identical request can succeed.
const (
	// StatusOK: the request succeeded; the body is a result.
	StatusOK byte = 0
	// StatusNoAuction: the query matched no bid phrase (serr.ErrNoAuction).
	StatusNoAuction byte = 1
	// StatusOverloaded: the backend admission queue was full and the query
	// was shed (serr.ErrOverloaded). Retryable.
	StatusOverloaded byte = 2
	// StatusClosed: the server is draining or closed (serr.ErrClosed).
	StatusClosed byte = 3
	// StatusDeadline: the request's own deadline expired
	// (context.DeadlineExceeded). Retryable.
	StatusDeadline byte = 4
	// StatusCanceled: the request's context was canceled (context.Canceled).
	StatusCanceled byte = 5
	// StatusBadRequest: the frame was well-formed at the framing layer but
	// semantically invalid (empty query, reused in-flight ID, oversized
	// batch, unknown frame type).
	StatusBadRequest byte = 6
	// StatusInternal: an unclassified backend failure; the message carries
	// the detail.
	StatusInternal byte = 7
	// StatusOverflow: the connection's bounded in-flight table was full and
	// the frame was refused before reaching the backend — connection-level
	// backpressure, the multiplexed analogue of StatusOverloaded.
	// Retryable; clients map it onto serr.ErrOverloaded.
	StatusOverflow byte = 8
)

// FlagRetryable marks a response whose identical request may succeed if
// retried (backpressure and deadline statuses).
const FlagRetryable byte = 1 << 0

// Config tunes the binary tier. The zero value serves on a random loopback
// port with the same timeout discipline as the HTTP tier's defaults.
type Config struct {
	// Addr is the listen address ("" means 127.0.0.1:0 — a random
	// loopback port, the test- and demo-friendly default).
	Addr string

	// MaxFrame bounds any single frame, either direction (0 means 1 MiB).
	// An inbound frame declaring more is a connection-level protocol error:
	// the declared length is validated before any allocation, so a hostile
	// length field cannot size a buffer (the ws readFrame lesson).
	MaxFrame int

	// MaxInFlight bounds the per-connection in-flight table (0 means 1024).
	// A frame arriving while the table is full is answered immediately with
	// StatusOverflow instead of ever queueing unboundedly; each frame —
	// including a batch frame — occupies one slot.
	MaxInFlight int

	// MaxBatchItems bounds the queries in one batch frame (0 means 256).
	MaxBatchItems int

	// DefaultTimeout is the query deadline applied when the frame names
	// none (0 means 2s); MaxTimeout clamps client-requested deadlines
	// (0 means 10s) — the same clamp the HTTP tier applies to X-Timeout.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// WriteTimeout bounds each coalesced flush to a client socket (0 means
	// 30s); a client that stops reading for longer loses its connection.
	WriteTimeout time.Duration
}

// withDefaults returns cfg with zero values replaced by the documented
// defaults.
func (cfg Config) withDefaults() Config {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = 1 << 20
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 1024
	}
	if cfg.MaxBatchItems <= 0 {
		cfg.MaxBatchItems = 256
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 2 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 10 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	return cfg
}

// statusOf maps a backend error onto its wire status and flags — the
// binary analogue of the HTTP tier's error → status table.
func statusOf(err error) (status, flags byte) {
	switch {
	case err == nil:
		return StatusOK, 0
	case errors.Is(err, serr.ErrNoAuction):
		return StatusNoAuction, 0
	case errors.Is(err, serr.ErrOverloaded):
		return StatusOverloaded, FlagRetryable
	case errors.Is(err, serr.ErrClosed):
		return StatusClosed, 0
	case errors.Is(err, context.DeadlineExceeded):
		return StatusDeadline, FlagRetryable
	case errors.Is(err, context.Canceled):
		return StatusCanceled, 0
	default:
		return StatusInternal, 0
	}
}

// errOf is statusOf's inverse on the client: wire statuses map back onto
// the serr sentinels (and context errors), so errors.Is policies written
// against the in-process servers hold across the wire. Unclassified
// statuses surface as a *RemoteError carrying the server's message.
func errOf(status, flags byte, msg string) error {
	switch status {
	case StatusOK:
		return nil
	case StatusNoAuction:
		return serr.ErrNoAuction
	case StatusOverloaded, StatusOverflow:
		return serr.ErrOverloaded
	case StatusClosed:
		return serr.ErrClosed
	case StatusDeadline:
		return context.DeadlineExceeded
	case StatusCanceled:
		return context.Canceled
	default:
		return &RemoteError{Status: status, Retryable: flags&FlagRetryable != 0, Msg: msg}
	}
}

// RemoteError is a server-reported failure that maps onto no sentinel:
// a bad request the client library should have prevented, or an internal
// backend failure. Retryable mirrors the wire flag.
type RemoteError struct {
	Status    byte
	Retryable bool
	Msg       string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("binproto: status %d: %s", e.Status, e.Msg)
}
