package shard

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"blinktree/internal/base"
	"blinktree/internal/verify"
	"blinktree/internal/wal"
)

// This file binds the integrity layer (internal/verify) to the engine:
// the per-shard hash overlay mutations dirty, the sealed roots
// replication publishes, per-checkpoint root persistence with a
// recompute-and-compare at recovery, and bucket proofs for OpProve.

// markVerify flags k's bucket in the overlay. On a durable engine apply
// calls it inside the key's stripe lock, right after the tree change —
// which is what makes SealedRoot exact: holding every stripe means no
// applied-but-unmarked change can exist.
func (e *Engine) markVerify(k base.Key) {
	if e.overlay != nil {
		e.overlay.MarkKey(uint64(k))
	}
}

// scanRange adapts the tree's ordered scan to the overlay's ScanFunc.
func (e *Engine) scanRange(lo, hi uint64, fn func(k, v uint64) bool) error {
	return e.Tree.Range(base.Key(lo), base.Key(hi), func(k base.Key, v base.Value) bool {
		return fn(uint64(k), uint64(v))
	})
}

// Verified reports whether the engine maintains the integrity overlay.
func (e *Engine) Verified() bool { return e.overlay != nil }

// VerifyBuckets returns the overlay's bucket count (0 when unverified).
func (e *Engine) VerifyBuckets() int { return e.verifyNB }

// VerifyRoot re-hashes whatever is dirty and returns the shard root.
// Concurrent with writers the result is fuzzy-but-recent; quiesced it
// is the exact, deterministic hash of the shard's content.
func (e *Engine) VerifyRoot() (verify.Hash, error) {
	if e.overlay == nil {
		return verify.Hash{}, fmt.Errorf("blinktree: engine is not verified")
	}
	return e.overlay.Root()
}

// SealedRoot computes a root bound to an exact WAL position: it
// re-hashes the dirty backlog, then holds every stripe lock — so no
// mutation is between its tree apply and its log append — re-hashes
// the residue, folds the root, and captures the flushed log position.
// Every record at or below (seg, off) is reflected in the root and
// every record above it is not, which is what lets a follower compare
// its own root at that position without any false alarm.
func (e *Engine) SealedRoot() (root verify.Hash, seg uint64, off int64, err error) {
	if e.overlay == nil {
		return root, 0, 0, fmt.Errorf("blinktree: engine is not verified")
	}
	// Bulk of the re-hash first, outside the stripes, so the write stall
	// below covers only the residue.
	if _, err = e.overlay.Rehash(); err != nil {
		return root, 0, 0, err
	}
	if e.wal != nil {
		for i := range e.stripes {
			e.stripes[i].Lock()
		}
		defer func() {
			for i := range e.stripes {
				e.stripes[i].Unlock()
			}
		}()
	}
	if root, err = e.overlay.Root(); err != nil {
		return root, 0, 0, err
	}
	if e.wal != nil {
		seg, off, err = e.wal.Position()
	}
	return root, seg, off, err
}

// BucketProof is one engine's contribution to an inclusion/exclusion
// proof: the full pair list of the key's bucket, the sibling path that
// folds its leaf to the shard root, and the shard root the fold
// reaches. The three are mutually consistent by construction — the
// root is computed from this very leaf and path — so the assembled
// proof always verifies against itself; whether it matches a *pinned*
// root is the client's judgement.
type BucketProof struct {
	Bucket    int
	Keys      []uint64
	Vals      []uint64
	Siblings  []verify.Hash
	ShardRoot verify.Hash
}

// Prove builds the engine's bucket proof for k.
func (e *Engine) Prove(k base.Key) (BucketProof, error) {
	if e.overlay == nil {
		return BucketProof{}, fmt.Errorf("blinktree: engine is not verified")
	}
	if _, err := e.overlay.Rehash(); err != nil {
		return BucketProof{}, err
	}
	b := verify.BucketOf(uint64(k), e.verifyNB)
	lo, hi := verify.BucketSpan(b, e.verifyNB)
	p := BucketProof{Bucket: b}
	if err := e.scanRange(lo, hi, func(k, v uint64) bool {
		p.Keys = append(p.Keys, k)
		p.Vals = append(p.Vals, v)
		return true
	}); err != nil {
		return BucketProof{}, err
	}
	p.Siblings = e.overlay.LeafPath(b)
	p.ShardRoot = verify.PathRoot(verify.LeafOf(p.Keys, p.Vals), b, p.Siblings)
	return p, nil
}

// --- per-checkpoint root persistence ---
//
// Every checkpoint of a verified engine writes a sibling root file
// recording the hash of exactly the pairs the snapshot captured.
// Recovery re-hashes the snapshot as it loads and compares: a
// mismatch means the checkpoint bytes changed since they were written
// — corruption or tampering the CRC footer alone cannot prove, since
// a consistent re-CRC is cheap for an attacker and free for a bit rot
// pattern that hits both. A missing root file is tolerated (crash
// window between checkpoint rename and root write; or a pre-verified
// checkpoint lineage).

const (
	rootFileVersion = 1
	rootFileLen     = 4 + 4 + 4 + verify.HashSize + 4
)

var rootFileMagic = [4]byte{'B', 'L', 'R', 'H'}

// rootPath names the root file bound to the checkpoint at seg.
func rootPath(dir string, seg uint64) string {
	return filepath.Join(dir, fmt.Sprintf("root-%016x.hash", seg))
}

// writeRootFile durably records root beside the checkpoint at seg.
func writeRootFile(dir string, seg uint64, nb int, root verify.Hash) error {
	b := make([]byte, 0, rootFileLen)
	b = append(b, rootFileMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, rootFileVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(nb))
	b = append(b, root[:]...)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	return wal.WriteFileDurable(rootPath(dir, seg), b)
}

// readRootFile loads the root recorded for the checkpoint at seg.
// ok=false when no (valid, same-bucketing) root file exists.
func readRootFile(dir string, seg uint64, nb int) (root verify.Hash, ok bool, err error) {
	b, err := os.ReadFile(rootPath(dir, seg))
	if os.IsNotExist(err) {
		return root, false, nil
	}
	if err != nil {
		return root, false, err
	}
	if len(b) != rootFileLen ||
		[4]byte(b[0:4]) != rootFileMagic ||
		binary.LittleEndian.Uint32(b[4:8]) != rootFileVersion ||
		binary.LittleEndian.Uint32(b[len(b)-4:]) != crc32.ChecksumIEEE(b[:len(b)-4]) {
		return root, false, fmt.Errorf("blinktree: root file for segment %d is corrupt", seg)
	}
	if int(binary.LittleEndian.Uint32(b[8:12])) != nb {
		// Bucketing changed between runs: the recorded root is simply
		// incomparable, not wrong.
		return root, false, nil
	}
	copy(root[:], b[12:12+verify.HashSize])
	return root, true, nil
}

// removeRootFilesBelow deletes root files for checkpoints below seg,
// mirroring wal.RemoveCheckpointsBelow.
func removeRootFilesBelow(dir string, seg uint64) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		var id uint64
		if n, _ := fmt.Sscanf(ent.Name(), "root-%016x.hash", &id); n != 1 {
			continue
		}
		if id < seg {
			if err := os.Remove(filepath.Join(dir, ent.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- Router surface ---

// Verified reports whether the router's engines maintain the
// integrity overlay.
func (r *Router) Verified() bool { return r.engines[0].Verified() }

// VerifyBuckets returns the overlay bucket count (0 when unverified).
func (r *Router) VerifyBuckets() int { return r.engines[0].VerifyBuckets() }

// Root combines every shard's root into the engine root — the value
// OpRoot serves, clients pin, and followers audit against.
func (r *Router) Root() (verify.Hash, error) {
	roots := make([]verify.Hash, len(r.engines))
	for i, e := range r.engines {
		var err error
		if roots[i], err = e.VerifyRoot(); err != nil {
			return verify.Hash{}, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return verify.CombineShards(roots, r.engines[0].VerifyBuckets()), nil
}

// Prove assembles the full inclusion/exclusion proof for k: the owning
// shard's bucket proof plus every other shard's current root. The
// proof is self-consistent by construction; whether its combined root
// matches the verifier's pinned root is the client's call.
func (r *Router) Prove(k base.Key) (*verify.Proof, error) {
	si := r.shardFor(k)
	bp, err := r.engines[si].Prove(k)
	if err != nil {
		return nil, err
	}
	p := &verify.Proof{
		Shards:     len(r.engines),
		ShardIdx:   si,
		Buckets:    r.engines[si].VerifyBuckets(),
		Bucket:     bp.Bucket,
		ShardRoots: make([]verify.Hash, len(r.engines)),
		Siblings:   bp.Siblings,
		Keys:       bp.Keys,
		Vals:       bp.Vals,
	}
	for i, e := range r.engines {
		if i == si {
			// Must be the root the bucket proof folds to, not a fresh
			// VerifyRoot — a racing mutation between the two calls would
			// make the proof self-contradictory.
			p.ShardRoots[i] = bp.ShardRoot
			continue
		}
		if p.ShardRoots[i], err = e.VerifyRoot(); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return p, nil
}

// compareCheckpointRoot checks a recovered checkpoint's recomputed
// root against the persisted one, failing recovery on divergence.
func (e *Engine) compareCheckpointRoot(seg uint64, got verify.Hash) error {
	want, ok, err := readRootFile(e.dir, seg, e.verifyNB)
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	if got != want {
		return fmt.Errorf("blinktree: checkpoint state root mismatch for segment %d: recomputed %x, recorded %x — snapshot corruption or tampering detected", seg, got[:8], want[:8])
	}
	return nil
}
