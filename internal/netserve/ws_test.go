package netserve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
)

// maskedFrame is a client-side frame writer: FIN set, the payload masked
// with mask, its length in the shortest of the three encodings (or in the
// one wide picks: 0 shortest, 1 the 16-bit form, 2 the 64-bit form).
func maskedFrame(op byte, mask [4]byte, payload []byte, wide byte) []byte {
	frame := []byte{0x80 | op&0x0F}
	n := len(payload)
	switch {
	case wide == 2:
		frame = append(frame, 0x80|127)
		frame = binary.BigEndian.AppendUint64(frame, uint64(n))
	case wide == 1 || n >= 126:
		frame = append(frame, 0x80|126)
		frame = binary.BigEndian.AppendUint16(frame, uint16(n))
	default:
		frame = append(frame, 0x80|byte(n))
	}
	frame = append(frame, mask[:]...)
	for i, b := range payload {
		frame = append(frame, b^mask[i%4])
	}
	return frame
}

// FuzzReadFrame hardens the live feed's frame reader. On any bytes it
// never panics, and every frame it accepts was masked and within
// maxClientFrame. A frame a masking client writes from a fuzzed opcode,
// mask and payload reads back as written.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{0x81, 0x85, 1, 2, 3, 4, 'h' ^ 1, 'e' ^ 2, 'l' ^ 3, 'l' ^ 4, 'o' ^ 1}, byte(opText), uint32(0x12345678), []byte("hello"), byte(0))
	f.Add([]byte{0x88, 0x80 | 127, 0x80, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4}, byte(opClose), uint32(0), []byte{0x03, 0xe8}, byte(2))
	f.Add([]byte{0x81, 0x05, 'h', 'e', 'l', 'l', 'o'}, byte(opPing), uint32(1), bytes.Repeat([]byte("x"), 300), byte(1))
	f.Fuzz(func(t *testing.T, raw []byte, op byte, mask uint32, payload []byte, wide byte) {
		if _, p, err := readFrame(bufio.NewReader(bytes.NewReader(raw))); err == nil {
			if raw[1]&0x80 == 0 {
				t.Fatalf("unmasked frame % x accepted", raw)
			}
			if len(p) > maxClientFrame {
				t.Fatalf("frame of %d bytes accepted, bound %d", len(p), maxClientFrame)
			}
		}

		if len(payload) > maxClientFrame {
			payload = payload[:maxClientFrame]
		}
		var key [4]byte
		binary.BigEndian.PutUint32(key[:], mask)
		frame := maskedFrame(op, key, payload, wide%3)
		gotOp, got, err := readFrame(bufio.NewReader(bytes.NewReader(frame)))
		if err != nil || gotOp != op&0x0F || !bytes.Equal(got, payload) {
			t.Fatalf("frame % x read back as op %#x payload %q, %v; want op %#x payload %q", frame, gotOp, got, err, op&0x0F, payload)
		}
	})
}
