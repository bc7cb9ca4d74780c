package trial

import (
	"bytes"
	"math"
	"testing"
)

// FuzzCheckpointCodec drives the hand-rolled checkpoint wire format with
// arbitrary blobs (decode must never panic and must reject junk cleanly)
// and with arbitrary (id, progress) pairs (encode→decode must be lossless,
// including NaN and infinities, which the codec transports bit-exactly and
// Restore — not the codec — rejects).
func FuzzCheckpointCodec(f *testing.F) {
	// Seed corpus: a genuine checkpoint, truncations, a corrupt magic
	// byte, an inflated length prefix, and trailing garbage.
	genuine := appendCheckpoint(nil, "hp-001", 41.25)
	f.Add(genuine, "hp-001", 41.25)
	f.Add(genuine[:len(genuine)-3], "x", 0.0)
	f.Add([]byte{0x52, 1, 'a', 0, 0, 0, 0, 0, 0, 0, 0}, "a", 1.5)
	f.Add([]byte{0x51, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, "", 0.0)
	f.Add(append(appendCheckpoint(nil, "t", 1), 0xde, 0xad), "t", 1.0)
	f.Add([]byte{}, "", math.NaN())

	f.Fuzz(func(t *testing.T, blob []byte, id string, progress float64) {
		// Arbitrary blobs: decode must be total — no panics, no loops —
		// and whatever it accepts must re-encode to the same bytes.
		if gotID, gotProg, err := DecodeCheckpoint(blob); err == nil {
			re := appendCheckpoint(nil, gotID, gotProg)
			if !bytes.Equal(re, blob) {
				t.Fatalf("decode/encode not canonical: %x -> (%q, %v) -> %x", blob, gotID, gotProg, re)
			}
		}

		// Arbitrary pairs: the codec is lossless (progress compared by
		// bits so NaN payloads count too).
		enc := appendCheckpoint(nil, id, progress)
		gotID, gotProg, err := DecodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("round trip of (%q, %v) rejected: %v", id, progress, err)
		}
		if gotID != id || math.Float64bits(gotProg) != math.Float64bits(progress) {
			t.Fatalf("round trip of (%q, %v) -> (%q, %v)", id, progress, gotID, gotProg)
		}
	})
}
