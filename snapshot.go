package blinktree

import (
	"fmt"
	"io"

	"blinktree/internal/snap"
)

// Snapshot stream format (little endian):
//
//	magic "BLTS" | version u32 | count u64 | count′ × (key u64, value u64) | footer
//
// The codec lives in internal/snap and is shared with the WAL
// checkpoint writer, so a checkpoint IS a snapshot. Version 2 (current)
// ends with a pairs-written u64 + CRC-32 footer so corruption and
// truncation are detected on restore; version 1 streams (no footer)
// are still read. The format is front-end agnostic: a snapshot taken
// from a single tree restores into a sharded index and vice versa,
// which is also the supported path for re-partitioning (snapshot with
// N shards, restore with M).

// writeSnapshot streams idx's pairs in ascending key order to w.
func writeSnapshot(idx Index, w io.Writer) error {
	err := snap.Write(w, idx.Len(), func(fn func(Key, Value) bool) error {
		return idx.Range(0, Key(^uint64(0)), fn)
	})
	if err != nil {
		return fmt.Errorf("blinktree: %w", err)
	}
	return nil
}

// readSnapshot loads a snapshot stream into idx. On a durable index it
// follows the BulkLoad pattern — pairs load without per-operation
// logging, then a single checkpoint makes the whole load durable —
// instead of paying one group commit per pair; Restore already
// requires a fresh index with exclusive access.
func readSnapshot(idx Index, r io.Reader) error {
	insert := idx.Insert
	finalize := func() error { return nil }
	switch v := idx.(type) {
	case *Tree:
		insert = v.eng.InsertDirect
		finalize = v.eng.Checkpoint
	case *Sharded:
		insert = v.r.InsertDirect
		finalize = v.r.Checkpoint
	}
	err := snap.Read(r, func(k Key, v Value) error {
		return insert(k, v)
	})
	if err != nil {
		return fmt.Errorf("blinktree: %w", err)
	}
	if err := finalize(); err != nil {
		return fmt.Errorf("blinktree: %w", err)
	}
	return nil
}

// Snapshot writes a point-in-time copy of the logical data (all
// key/value pairs in ascending key order) to w, ending with a CRC
// footer that Restore verifies. Run it quiesced for an exact snapshot;
// under concurrent mutation it degrades to the scan semantics of
// Range.
func (t *Tree) Snapshot(w io.Writer) error { return writeSnapshot(t, w) }

// Restore loads a snapshot produced by Snapshot into the tree,
// verifying its integrity footer (legacy footerless streams are
// accepted). The tree must be freshly opened with exclusive access
// (existing keys colliding with snapshot keys cause ErrDuplicate). On
// a durable tree the load bypasses the per-operation log and ends
// with one checkpoint, like BulkLoad.
func (t *Tree) Restore(r io.Reader) error { return readSnapshot(t, r) }

// Snapshot writes a point-in-time copy of all shards' data, in global
// ascending key order, to w. Same semantics as Tree.Snapshot.
func (s *Sharded) Snapshot(w io.Writer) error { return writeSnapshot(s, w) }

// Restore loads a snapshot into the sharded index, routing each pair
// to its shard — snapshots move freely between shard counts and the
// single tree.
func (s *Sharded) Restore(r io.Reader) error { return readSnapshot(s, r) }
