package netserve

import (
	"bufio"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sharedwd/internal/server"
)

// The WebSocket support is a hand-rolled server-side subset of RFC 6455 —
// the stdlib has no WebSocket package and this repo adds no dependencies.
// Scope: the opening handshake (server role), text data frames out,
// control-frame handling in (ping → pong, close → close), and a broadcast
// hub whose per-connection buffered send queues drop slow consumers
// instead of ever blocking the round loop that publishes into it.

const wsGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// WebSocket frame opcodes (RFC 6455 §5.2).
const (
	opContinuation = 0x0
	opText         = 0x1
	opBinary       = 0x2
	opClose        = 0x8
	opPing         = 0x9
	opPong         = 0xA
)

// maxClientFrame bounds what a client may send on the live feed — the feed
// is server-push; inbound traffic is control frames and noise.
const maxClientFrame = 4096

// wsAccept computes the Sec-WebSocket-Accept token for a handshake key.
func wsAccept(key string) string {
	h := sha1.New()
	io.WriteString(h, key)
	io.WriteString(h, wsGUID)
	return base64.StdEncoding.EncodeToString(h.Sum(nil))
}

// headerContainsToken reports whether a comma-separated header value
// contains the token (ASCII case-insensitive), as RFC 7230 list syntax
// requires — "Connection: keep-alive, Upgrade" must match "upgrade".
func headerContainsToken(value, token string) bool {
	for _, part := range strings.Split(value, ",") {
		if strings.EqualFold(strings.TrimSpace(part), token) {
			return true
		}
	}
	return false
}

// wsUpgrade performs the RFC 6455 §4.2 server-side opening handshake:
// validates the upgrade headers, hijacks the connection, clears the HTTP
// server's deadlines (the hub manages per-frame deadlines from here on),
// and writes the 101 response. On failure it writes the HTTP error itself
// and returns a nil conn.
func wsUpgrade(w http.ResponseWriter, r *http.Request) (net.Conn, *bufio.Reader) {
	if !headerContainsToken(r.Header.Get("Connection"), "upgrade") ||
		!headerContainsToken(r.Header.Get("Upgrade"), "websocket") {
		http.Error(w, "netserve: /v1/live speaks WebSocket; missing Upgrade headers", http.StatusUpgradeRequired)
		return nil, nil
	}
	if v := r.Header.Get("Sec-WebSocket-Version"); v != "13" {
		w.Header().Set("Sec-WebSocket-Version", "13")
		http.Error(w, fmt.Sprintf("netserve: unsupported WebSocket version %q", v), http.StatusUpgradeRequired)
		return nil, nil
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		http.Error(w, "netserve: missing Sec-WebSocket-Key", http.StatusBadRequest)
		return nil, nil
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "netserve: connection cannot be hijacked", http.StatusInternalServerError)
		return nil, nil
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		http.Error(w, "netserve: hijack failed", http.StatusInternalServerError)
		return nil, nil
	}
	// The HTTP server set read/write deadlines for the request cycle; a
	// live feed outlives them. Per-frame deadlines take over.
	conn.SetDeadline(time.Time{})
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + wsAccept(key) + "\r\n\r\n"
	if _, err := rw.WriteString(resp); err != nil {
		conn.Close()
		return nil, nil
	}
	if err := rw.Flush(); err != nil {
		conn.Close()
		return nil, nil
	}
	return conn, rw.Reader
}

// writeFrame writes one unmasked server-to-client frame with FIN set.
func writeFrame(w io.Writer, op byte, payload []byte) error {
	var hdr [10]byte
	hdr[0] = 0x80 | op
	n := 2
	switch {
	case len(payload) < 126:
		hdr[1] = byte(len(payload))
	case len(payload) < 1<<16:
		hdr[1] = 126
		binary.BigEndian.PutUint16(hdr[2:4], uint16(len(payload)))
		n = 4
	default:
		hdr[1] = 127
		binary.BigEndian.PutUint64(hdr[2:10], uint64(len(payload)))
		n = 10
	}
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// closePayload renders a close frame's status code + reason text.
func closePayload(code uint16, reason string) []byte {
	p := make([]byte, 2+len(reason))
	binary.BigEndian.PutUint16(p, code)
	copy(p[2:], reason)
	return p
}

// readFrame reads one client-to-server frame and unmasks its payload. RFC
// 6455 §5.1 requires every client frame be masked; unmasked or oversized
// frames are protocol errors.
func readFrame(br *bufio.Reader) (op byte, payload []byte, err error) {
	var hdr [2]byte
	if _, err = io.ReadFull(br, hdr[:]); err != nil {
		return 0, nil, err
	}
	op = hdr[0] & 0x0F
	masked := hdr[1]&0x80 != 0
	// The declared length stays uint64 until after the bound check: the
	// 64-bit extended form can name sizes past int64, which must hit the
	// size limit, not wrap negative and slip past it into make.
	length := uint64(hdr[1] & 0x7F)
	switch length {
	case 126:
		var ext [2]byte
		if _, err = io.ReadFull(br, ext[:]); err != nil {
			return 0, nil, err
		}
		length = uint64(binary.BigEndian.Uint16(ext[:]))
	case 127:
		var ext [8]byte
		if _, err = io.ReadFull(br, ext[:]); err != nil {
			return 0, nil, err
		}
		length = binary.BigEndian.Uint64(ext[:])
	}
	if !masked {
		return 0, nil, fmt.Errorf("netserve: unmasked client frame")
	}
	if length > maxClientFrame {
		return 0, nil, fmt.Errorf("netserve: client frame of %d bytes exceeds %d", length, maxClientFrame)
	}
	var mask [4]byte
	if _, err = io.ReadFull(br, mask[:]); err != nil {
		return 0, nil, err
	}
	payload = make([]byte, length)
	if _, err = io.ReadFull(br, payload); err != nil {
		return 0, nil, err
	}
	for i := range payload {
		payload[i] ^= mask[i%4]
	}
	return op, payload, nil
}

// closeEcho picks the status the server sends back for a received close
// frame. RFC 6455 §5.5.1 has the endpoint typically echo the client's own
// status code; an empty close payload answers 1000, and a code that may
// not appear on the wire (<1000, or the reserved 1005/1006/1015) is a
// protocol error.
func closeEcho(payload []byte) uint16 {
	if len(payload) < 2 {
		return 1000
	}
	code := binary.BigEndian.Uint16(payload)
	if code < 1000 || code == 1005 || code == 1006 || code == 1015 {
		return 1002
	}
	return code
}

// wsFrame is one queued outbound frame.
type wsFrame struct {
	op      byte
	payload []byte
}

// wsConn is one live-feed subscriber: the hijacked TCP connection plus its
// bounded send queue. The writer goroutine is the only writer to the
// socket; the reader goroutine only consumes control frames.
type wsConn struct {
	netc net.Conn
	br   *bufio.Reader
	send chan wsFrame
	stop chan struct{}
	once sync.Once

	// closeCode/closeReason are what the writer sends in its parting close
	// frame; set (before kill) by whoever decides to end the connection.
	closeCode   uint16
	closeReason string
}

// kill schedules the connection's teardown: the writer goroutine sends the
// close frame and closes the socket, which in turn unblocks the reader.
// Idempotent and safe from any goroutine.
func (c *wsConn) kill(code uint16, reason string) {
	c.once.Do(func() {
		c.closeCode, c.closeReason = code, reason
		close(c.stop)
	})
}

// Hub fans round summaries out to every connected /v1/live subscriber.
// Each connection owns a buffered send queue; Broadcast never blocks — a
// subscriber whose queue is full when a message arrives is dropped (its
// connection closed with status 1008) rather than ever stalling the
// publisher, which is a serving round loop. Safe for concurrent use.
type Hub struct {
	queue        int
	writeTimeout time.Duration

	mu     sync.Mutex
	conns  map[*wsConn]struct{}
	closed bool
	wg     sync.WaitGroup

	dropped   atomic.Int64 // slow consumers disconnected
	delivered atomic.Int64 // frames enqueued for delivery
}

// NewHub returns an empty hub whose per-connection send queues hold queue
// messages (minimum 1; Config.LiveQueue has the default) and whose frame
// writes time out after writeTimeout (0 means 10 s).
func NewHub(queue int, writeTimeout time.Duration) *Hub {
	if queue < 1 {
		queue = 1
	}
	if writeTimeout <= 0 {
		writeTimeout = 10 * time.Second
	}
	return &Hub{
		queue:        queue,
		writeTimeout: writeTimeout,
		conns:        make(map[*wsConn]struct{}),
	}
}

// Conns returns the current subscriber count.
func (h *Hub) Conns() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.conns)
}

// Dropped returns how many slow consumers have been disconnected.
func (h *Hub) Dropped() int64 { return h.dropped.Load() }

// Delivered returns how many frames have been enqueued for delivery.
func (h *Hub) Delivered() int64 { return h.delivered.Load() }

// RoundHook adapts the hub to server.Config.OnRound: each round summary is
// marshaled once and broadcast to every subscriber. With no subscribers it
// returns without marshaling, so an unwatched server pays nothing.
func (h *Hub) RoundHook() func(server.RoundSummary) {
	return func(rs server.RoundSummary) {
		if h.Conns() == 0 {
			return
		}
		data, err := json.Marshal(rs)
		if err != nil {
			return // a struct of ints and floats cannot fail; belt and braces
		}
		h.Broadcast(data)
	}
}

// Broadcast enqueues one text frame to every subscriber without blocking:
// subscribers whose queue is full are dropped. Safe for concurrent use.
func (h *Hub) Broadcast(payload []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for c := range h.conns {
		select {
		case c.send <- wsFrame{op: opText, payload: payload}:
			h.delivered.Add(1)
		default:
			delete(h.conns, c)
			h.dropped.Add(1)
			c.kill(1008, "slow consumer")
		}
	}
}

// serve registers a freshly upgraded connection and runs its reader loop
// (the caller's goroutine) plus a writer goroutine. It returns when the
// connection is torn down — client close, protocol error, slow-consumer
// drop, or hub shutdown.
func (h *Hub) serve(netc net.Conn, br *bufio.Reader) {
	c := &wsConn{
		netc: netc,
		br:   br,
		send: make(chan wsFrame, h.queue),
		stop: make(chan struct{}),
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		netc.SetWriteDeadline(time.Now().Add(h.writeTimeout))
		writeFrame(netc, opClose, closePayload(1001, "server shutting down"))
		netc.Close()
		return
	}
	h.conns[c] = struct{}{}
	h.wg.Add(1) // the writer; the reader runs on the caller's goroutine
	h.mu.Unlock()

	go h.writer(c)
	h.reader(c)
}

// writer drains the send queue onto the socket until the connection is
// killed, then sends the close frame and closes the socket (which unblocks
// the reader).
func (h *Hub) writer(c *wsConn) {
	defer h.wg.Done()
	defer c.netc.Close()
	for {
		select {
		case f := <-c.send:
			c.netc.SetWriteDeadline(time.Now().Add(h.writeTimeout))
			if err := writeFrame(c.netc, f.op, f.payload); err != nil {
				c.kill(1002, "write failed")
				h.detach(c)
				return
			}
		case <-c.stop:
			c.netc.SetWriteDeadline(time.Now().Add(h.writeTimeout))
			writeFrame(c.netc, opClose, closePayload(c.closeCode, c.closeReason))
			return
		}
	}
}

// reader consumes client frames: pong replies to pings, teardown on close
// frames or protocol errors, and everything else is discarded (the live
// feed is one-way).
func (h *Hub) reader(c *wsConn) {
	for {
		op, payload, err := readFrame(c.br)
		if err != nil {
			c.kill(1002, "protocol error")
			h.detach(c)
			return
		}
		switch op {
		case opClose:
			c.kill(closeEcho(payload), "")
			h.detach(c)
			return
		case opPing:
			// Best effort: a pong that would overflow the queue is dropped,
			// never blocked on.
			select {
			case c.send <- wsFrame{op: opPong, payload: payload}:
			default:
			}
		case opPong, opText, opBinary, opContinuation:
			// Ignored: the feed is server-push.
		}
	}
}

// detach removes a connection from the broadcast set (no-op if Broadcast
// already dropped it).
func (h *Hub) detach(c *wsConn) {
	h.mu.Lock()
	delete(h.conns, c)
	h.mu.Unlock()
}

// Close disconnects every subscriber with a going-away close frame,
// refuses new registrations, and waits for all writer goroutines to exit.
// Idempotent; safe to call concurrently.
func (h *Hub) Close() {
	h.mu.Lock()
	h.closed = true
	for c := range h.conns {
		delete(h.conns, c)
		c.kill(1001, "server shutting down")
	}
	h.mu.Unlock()
	h.wg.Wait()
}
