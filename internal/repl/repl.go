// Package repl is the asynchronous replication subsystem: WAL shipping
// from a durable primary to read replicas over the wire protocol's
// follower stream (docs/protocol.md).
//
// The design reuses the two guarantees the durability subsystem
// already establishes. First, the per-shard WAL is a prefix-consistent
// record of every acknowledged mutation in apply order, so a follower
// that replays a WAL prefix holds exactly a past state of that shard.
// Second, replay is idempotent — puts re-apply as upserts, dels as
// delete-if-present — so records may be shipped, applied, and (after a
// follower restart) re-shipped at-least-once without coordination.
// Together they reduce replication to tailing segment files and
// re-running recovery continuously on another machine: the same
// argument Sagiv's §5.2 makes for crash recovery (correctness from the
// structure's invariants plus idempotent re-application, not mutual
// exclusion) carried over the network.
//
// State transfer (transfer.go) is that argument written once, as the
// "fuzzy snapshot + WAL-tail chase" primitive that follower feeds here
// and live migrations in internal/cluster both call. A Source reads a
// shard's committed records straight from the segment files through a
// wal.TailReader — concurrently with the committer, trusting only
// CRC-valid prefixes — and ships them as FrameRecords; for a receiver
// whose position the log no longer covers (a fresh one, or one that
// slept through a checkpoint's truncation) it bootstraps first:
// FrameReset, the fuzzy snapshot of Engine.StreamState, FrameSnapEnd
// carrying the resume segment. A receiver that applies, in order,
// everything shipped after a Bootstrap holds exactly the sender's state
// as of the last drained record: the snapshot captures every record
// below the resume segment and the tail carries the rest. A Session
// carries the frames under ack-window backpressure — a slow receiver
// bounds the sender's buffering, never its write path — and an Applier
// lands them in a router. Retry policy is NOT part of it: a checkpoint
// that outruns the tail surfaces as wal.ErrTruncated and the caller
// decides whether and when to Bootstrap again. A Feed (one per follower
// connection) multiplexes one Source per shard round-robin onto one
// Session and re-bootstraps a truncated shard on its next round.
//
// Replica side (Follower): dials the primary, handshakes OpFollow with
// its durable per-shard positions, applies streamed records through
// shard.Router.ApplyBatch — so a durable follower writes its own WAL
// and group-commits like any other writer, making it promotable — and
// acks periodically. Positions persist in a small CRC-guarded file
// (atomic rename); a stale or torn position file only ever causes
// harmless re-application or a fresh bootstrap, never divergence.
// Promotion is Stop with intent: the follower stops streaming and the
// serving layer flips read-only off.
package repl

import (
	"encoding/binary"
	"fmt"

	"blinktree/internal/base"
	"blinktree/internal/wal"
	"blinktree/internal/wire"
)

// Position is a follower's durable location in one shard's WAL: the
// next record to apply lives at byte Off of segment Seg. Seg 0 means
// "fresh" — no records applied, bootstrap needed.
type Position struct {
	Seg uint64
	Off int64
}

// fresh reports whether the position predates any applied record.
func (p Position) fresh() bool { return p.Seg == 0 }

// maxFrameRecords bounds records per FrameRecords frame; at 17 payload
// bytes per record a full frame stays ~9 KiB, far under wire.MaxFrame.
const maxFrameRecords = 512

// appendRecords encodes a FrameRecords payload: the resume position
// after the batch, then the records. Snapshot bootstrap frames pass
// seg 0 so the follower applies without advancing its position.
func appendRecords(b *wire.Buf, seg uint64, endOff int64, recs []wal.Record) {
	b.Reset()
	b.U64(seg)
	b.U64(uint64(endOff))
	b.U32(uint32(len(recs)))
	for _, r := range recs {
		b.U8(uint8(r.Kind))
		b.U64(uint64(r.Key))
		b.U64(uint64(r.Value))
	}
}

// DecodeRecords parses a FrameRecords payload into recs (reused).
// Exported for the migration target (internal/cluster).
func DecodeRecords(payload []byte, recs []wal.Record) (seg uint64, endOff int64, _ []wal.Record, err error) {
	d := wire.Dec{B: payload}
	seg = d.U64()
	endOff = int64(d.U64())
	n := int(d.U32())
	if d.Err == nil && n > (len(payload)-20)/17 {
		return 0, 0, nil, fmt.Errorf("repl: records frame count %d exceeds payload", n)
	}
	for i := 0; i < n; i++ {
		r := wal.Record{
			Kind:  wal.Kind(d.U8()),
			Key:   base.Key(d.U64()),
			Value: base.Value(d.U64()),
		}
		if r.Kind != wal.KindPut && r.Kind != wal.KindDel {
			return 0, 0, nil, fmt.Errorf("repl: unknown record kind %d", r.Kind)
		}
		recs = append(recs, r)
	}
	if !d.Done() {
		return 0, 0, nil, fmt.Errorf("repl: malformed records frame")
	}
	return seg, endOff, recs, nil
}

// appendPositions encodes shards u32 | shards × (seg u64 | off u64), the
// shape OpFollow and FrameAck share.
func appendPositions(b *wire.Buf, pos []Position) {
	b.Reset()
	b.U32(uint32(len(pos)))
	for _, p := range pos {
		b.U64(p.Seg)
		b.U64(uint64(p.Off))
	}
}

// appendAck encodes a FrameAck payload.
func appendAck(b *wire.Buf, pos []Position, applied uint64) {
	appendPositions(b, pos)
	b.U64(applied)
}

// ackApplied validates a FrameAck payload against the expected shard
// count and returns its applied count — all the feed reads from an ack
// (the positions in it are the follower's own durable record).
func ackApplied(payload []byte, shards int) (uint64, error) {
	d := wire.Dec{B: payload}
	if n := int(d.U32()); d.Err != nil || n != shards || len(payload) != 4+16*n+8 {
		return 0, fmt.Errorf("repl: malformed ack frame (for %d shards, want %d)", n, shards)
	}
	return binary.LittleEndian.Uint64(payload[len(payload)-8:]), nil
}

// DecodeFollowRequest parses an OpFollow payload into per-shard
// positions, validating the count against the serving router's.
func DecodeFollowRequest(payload []byte, shards int) ([]Position, error) {
	d := wire.Dec{B: payload}
	n := int(d.U32())
	if d.Err != nil || n != shards {
		return nil, fmt.Errorf("follower has %d shards, primary has %d (shard counts must match)", n, shards)
	}
	pos := make([]Position, n)
	for i := range pos {
		pos[i] = Position{Seg: d.U64(), Off: int64(d.U64())}
	}
	if !d.Done() {
		return nil, fmt.Errorf("malformed follow payload")
	}
	return pos, nil
}

// AppendFollowRequest encodes an OpFollow payload.
func AppendFollowRequest(b *wire.Buf, pos []Position) { appendPositions(b, pos) }
