package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"

	"blinktree/internal/verify"
)

// frame assembles one wire frame for seeding.
func frame(id uint64, code uint8, payload []byte) []byte {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, id, code, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzDecode hammers the frame decoder — the first untrusted bytes a
// networked server parses — with arbitrary input. The properties under
// test: ReadFrame never panics, never returns a payload larger than
// MaxFrame, terminates (every accepted frame consumes ≥ 13 bytes), and
// every frame it accepts round-trips identically through WriteFrame.
// The hello validator gets the same treatment.
func FuzzDecode(f *testing.F) {
	// Seeds: one of each frame shape the protocol actually uses, plus
	// hand-broken variants (truncations, oversized length, bad magic).
	var b Buf
	b.U64(42)
	f.Add(frame(1, OpSearch, b.B))
	b.Reset()
	b.U64(7)
	b.U64(9)
	f.Add(frame(2, OpUpsert, b.B))
	f.Add(frame(3, OpPing, nil))
	b.Reset()
	b.U64(0)
	b.U64(^uint64(0))
	b.U32(128)
	f.Add(frame(4, OpScan, b.B))
	b.Reset()
	b.U32(1)
	b.U8(OpInsert)
	b.U64(5)
	b.U64(6)
	b.U64(0)
	f.Add(frame(5, OpBatch, b.B))
	b.Reset()
	b.U32(2)
	b.U64(3)
	b.U64(16)
	b.U64(0)
	b.U64(0)
	f.Add(frame(6, OpFollow, b.B))
	f.Add(frame(7, FrameAck, []byte{1, 0, 0, 0}))
	// Integrity vocabulary: root fetch, proof fetch, and the
	// replication root announcement (seg u64 | off u64 | root [32]).
	f.Add(frame(12, OpRoot, nil))
	f.Add(frame(12, OpRoot, make([]byte, 32)))
	b.Reset()
	b.U64(42)
	f.Add(frame(13, OpProve, b.B))
	pf := verify.EncodeProof(nil, &verify.Proof{
		Shards: 2, ShardIdx: 1, Buckets: 4, Bucket: 3,
		ShardRoots: make([]verify.Hash, 2),
		Siblings:   make([]verify.Hash, 2),
		Keys:       []uint64{42}, Vals: []uint64{7},
	})
	f.Add(frame(13, OpProve, pf))
	// Broken proofs: truncated mid-roots, depth lying about nb, and a
	// pair count that outruns the payload.
	f.Add(frame(13, OpProve, pf[:20]))
	lied := append([]byte(nil), pf...)
	lied[16+2*32] = 9
	f.Add(frame(13, OpProve, lied))
	f.Add(frame(13, OpProve, append(pf[:len(pf)-16], 0xff, 0xff, 0xff, 0xff)))
	rootFrame := make([]byte, 48)
	binary.LittleEndian.PutUint64(rootFrame[0:8], 3)
	binary.LittleEndian.PutUint64(rootFrame[8:16], 16)
	f.Add(frame(0, FrameRoot, rootFrame))
	f.Add(frame(0, FrameRoot, rootFrame[:17]))
	// Two frames back to back: the loop must consume both.
	f.Add(append(frame(8, OpLen, nil), frame(9, OpStats, nil)...))
	// Torn header, torn payload, zero length, oversized length.
	f.Add(frame(10, OpDelete, []byte{1, 2, 3, 4, 5, 6, 7, 8})[:6])
	f.Add(frame(11, OpInsert, make([]byte, 16))[:17])
	f.Add([]byte{0, 0, 0, 0})
	f.Add(binary.LittleEndian.AppendUint32(nil, MaxFrame+100))
	// Hellos: valid, bad magic, and the versions either side of the one
	// this build speaks.
	f.Add([]byte{'B', 'L', 'N', 'K', byte(Version), 0, 0, 0})
	f.Add([]byte{'H', 'T', 'T', 'P', byte(Version), 0, 0, 0})
	f.Add([]byte{'B', 'L', 'N', 'K', byte(Version - 1), 0, 0, 0})
	f.Add([]byte{'B', 'L', 'N', 'K', byte(Version + 1), 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		consumedBound := len(data)
		frames := 0
		for {
			id, code, payload, err := ReadFrame(br, nil)
			if err != nil {
				break
			}
			frames++
			if frames > consumedBound/13+1 {
				t.Fatalf("decoded %d frames from %d bytes: decoder is not consuming", frames, len(data))
			}
			if len(payload) > MaxFrame {
				t.Fatalf("payload of %d bytes exceeds MaxFrame", len(payload))
			}
			var out bytes.Buffer
			if err := WriteFrame(&out, id, code, payload); err != nil {
				t.Fatalf("re-encode of accepted frame failed: %v", err)
			}
			rb := bufio.NewReader(&out)
			id2, code2, payload2, err := ReadFrame(rb, nil)
			if err != nil || id2 != id || code2 != code || !bytes.Equal(payload2, payload) {
				t.Fatalf("round-trip mismatch: (%d,%d,%x,%v) vs (%d,%d,%x)",
					id2, code2, payload2, err, id, code, payload)
			}
		}
		// Proof decoding faces the same untrusted bytes (an OpProve
		// response payload). It must never panic, and any proof it
		// accepts must re-encode to the exact bytes it was parsed from
		// — the encoding is canonical.
		if p, err := verify.DecodeProof(data); err == nil {
			if enc := verify.EncodeProof(nil, p); !bytes.Equal(enc, data) {
				t.Fatalf("proof round-trip mismatch: %x vs %x", enc, data)
			}
			p.Lookup(42)
			p.Root()
		}
		// The hello validator must reject or accept without panicking,
		// and only ever accept the exact magic plus the one version this
		// build speaks.
		if err := ReadHello(bytes.NewReader(data)); err == nil {
			if !bytes.Equal(data[:4], Magic[:]) || binary.LittleEndian.Uint16(data[4:6]) != Version {
				t.Fatalf("ReadHello accepted %x", data[:8])
			}
		}
	})
}
