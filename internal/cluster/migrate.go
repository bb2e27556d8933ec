package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"blinktree/internal/repl"
	"blinktree/internal/shard"
	"blinktree/internal/wal"
	"blinktree/internal/wire"
)

const (
	// migWindow bounds shipped-minus-acked records before the source
	// pauses — a slow target bounds the source's buffering, never its
	// write path.
	migWindow = 1 << 15
	// migBootstraps bounds snapshot restarts after a checkpoint
	// truncates the chase segment mid-stream.
	migBootstraps = 5
)

// Migrate live-migrates range sh's data and ownership from this node
// to the cluster member at target, blocking until the handoff commits
// (or fails). It is idempotent: re-triggering after any crash or error
// resolves the interrupted attempt — a target that already owns the
// range reports so in the handshake and the source adopts the result;
// otherwise the stream re-runs from a fresh snapshot.
//
// The sequence: bootstrap a repl.Source (snapshot concurrent with
// writers), drain the WAL tail the snapshot rotation left behind, fence
// the range (new writes refuse with a redirect, in-flight batches drain
// behind the fence barrier), drain the final tail, send FrameHandoff,
// and commit ownership once the target acks.
func (n *Node) Migrate(r *shard.Router, sh int, target string) error {
	if err := n.validShard(sh); err != nil {
		return err
	}
	if target == "" || target == n.self {
		return fmt.Errorf("cluster: migration target %q must be another member", target)
	}
	if !r.Durable() {
		return errors.New("cluster: migration requires a durable server")
	}
	n.migMu.Lock()
	defer n.migMu.Unlock()

	owner, pending, _ := n.OwnedInfo(sh)
	// reclaim wipes the local copy of a range the target owns. The wipe
	// is logged like any delete, so recovery cannot resurrect it.
	reclaim := func() error { return repl.NewApplier(r).Reset(r.ShardSpan(sh)) }
	switch {
	case owner == target:
		// Already handed off. Reclaim any local copy a crash left
		// behind mid-wipe, then report success (idempotence).
		return reclaim()
	case owner != n.self:
		return fmt.Errorf("%w: range %d is owned by %s", errNotOwner, sh, owner)
	case pending != "" && pending != target:
		return fmt.Errorf("cluster: range %d is fenced toward %s, not %s", sh, pending, target)
	}

	n.migShard.Store(int64(sh))
	n.phase.Store(PhaseSnapshot)
	defer func() {
		n.migShard.Store(-1)
		n.phase.Store(PhaseIdle)
	}()

	var done atomic.Bool // set by the target's post-handoff ack
	sess, already, tgtVersion, err := dialIngest(target, sh, &done)
	if err != nil {
		return fmt.Errorf("cluster: ingest handshake with %s: %w", target, err)
	}
	if already {
		// The target persisted its claim before acking a prior
		// handoff; our commit (and local reclaim) is the missing piece.
		if err := n.adopt(sh, target, tgtVersion); err != nil {
			return err
		}
		return reclaim()
	}
	defer sess.Close()

	// The handshake confirmed the target does not own the range (and
	// its durable claim would have survived any crash), so until our
	// FrameHandoff is on the wire the target cannot own it — failures
	// before that point may safely un-fence and resume serving.
	handoffSent := false
	fenced := pending == target // a crashed attempt already fenced it
	fail := func(err error) error {
		if fenced && !handoffSent {
			n.unfence(sh)
		}
		return err
	}

	src := repl.NewSource(r.Engine(sh), sh, func(id uint64, code uint8, payload []byte, records int) error {
		err := sess.Ship(id, code, payload, records)
		if err == nil {
			n.shipped.Add(uint64(records))
		}
		return err
	})
	defer src.Close()
	// drain ships committed tail records until caught up. A checkpoint
	// may truncate the chase segment underneath (ErrTruncated); the
	// retry policy here is to restart the stream from a fresh snapshot,
	// a bounded number of times per migration.
	bootstraps := 0
	drain := func() error {
		for {
			shipped, err := src.Drain(repl.Position{})
			if errors.Is(err, wal.ErrTruncated) {
				if bootstraps++; bootstraps > migBootstraps {
					return fmt.Errorf("chase segment truncated %d times", bootstraps)
				}
				n.logf("cluster: range %d chase segment truncated, re-bootstrapping", sh)
				err = src.Bootstrap()
			} else if err == nil && shipped == 0 {
				return nil
			}
			if err != nil {
				return err
			}
		}
	}

	if err := src.Bootstrap(); err != nil {
		return fail(fmt.Errorf("cluster: migrate range %d: snapshot stream: %w", sh, err))
	}
	n.phase.Store(PhaseChase)
	if err := drain(); err != nil {
		return fail(fmt.Errorf("cluster: migrate range %d: chase: %w", sh, err))
	}

	// Fence: refuse new writes for the range, wait out in-flight
	// batches, then ship whatever raced in — after the barrier nothing
	// can append to this shard's WAL, so one more drain is final.
	n.phase.Store(PhaseFence)
	fenceStart := time.Now()
	if !fenced {
		if err := n.setFenced(sh, target); err != nil {
			return fmt.Errorf("cluster: persist fence for range %d: %w", sh, err)
		}
		fenced = true
	}
	n.fenceMu.Lock()
	n.fenceMu.Unlock() //nolint:staticcheck // empty critical section IS the barrier
	if err := drain(); err != nil {
		return fail(fmt.Errorf("cluster: migrate range %d: final tail: %w", sh, err))
	}

	newVersion := max(n.Version(), tgtVersion) + 1
	var enc wire.Buf
	enc.U64(newVersion)
	handoffSent = true
	if err := sess.Ship(uint64(sh), wire.FrameHandoff, enc.B, 0); err != nil {
		return fmt.Errorf("cluster: migrate range %d: handoff: %w", sh, err)
	}
	if err := sess.Await(done.Load); err != nil {
		// The target may or may not have committed; stay fenced — the
		// next Migrate resolves it via the handshake.
		return fmt.Errorf("cluster: migrate range %d: awaiting handoff ack: %w", sh, err)
	}
	fence := time.Since(fenceStart)
	n.lastFenceNS.Store(int64(fence))
	n.totalFenceNS.Add(int64(fence))
	if err := n.commitOut(sh, target, newVersion); err != nil {
		return fmt.Errorf("cluster: persist handoff of range %d: %w", sh, err)
	}
	n.migrations.Add(1)
	n.logf("cluster: migrated range %d to %s (v%d, %d records shipped, fence %v)",
		sh, target, newVersion, sess.Shipped(), fence.Round(time.Microsecond))
	// The target serves the range now; the local copy is garbage.
	if err := reclaim(); err != nil {
		return fmt.Errorf("cluster: reclaim migrated range %d: %w", sh, err)
	}
	return nil
}

// ResolveFences completes migrations this node crashed in the middle
// of: every range persisted as fenced outbound is re-migrated toward
// its recorded target — the ingest handshake adopts a handoff that had
// already committed on the target, and a fresh stream finishes one
// that had not. Call once at startup (after ReclaimRemote, before
// serving); without it a crash window exists where the target owns the
// range but the source stays fenced forever, holding a stale copy no
// admin re-trigger can reach (the cluster map already names the
// target, so nothing routes a Migrate back here). An unreachable
// target leaves the range fenced — writes keep redirecting, and a
// later re-trigger can still resolve it.
func (n *Node) ResolveFences(r *shard.Router) {
	for sh := 0; sh < n.shards; sh++ {
		owner, pending, _ := n.OwnedInfo(sh)
		if owner != n.self || pending == "" {
			continue
		}
		if err := n.Migrate(r, sh, pending); err != nil {
			n.logf("cluster: resolving fenced range %d toward %s: %v", sh, pending, err)
		}
	}
}

// ReclaimRemote deletes local copies of ranges this node does not own:
// leftovers of an interrupted migration — a handoff that committed
// right before a crash cut the source's reclaim short, or a partial
// ingest whose stream died. Call it once at startup, before serving;
// it is safe because every ingest stream begins with its own wipe, so
// a non-owned copy is pure garbage by definition.
func (n *Node) ReclaimRemote(r *shard.Router) error {
	for sh := 0; sh < n.shards; sh++ {
		if n.state[sh].Load() != rangeRemote {
			continue
		}
		if err := repl.NewApplier(r).Reset(r.ShardSpan(sh)); err != nil {
			return fmt.Errorf("cluster: reclaim range %d: %w", sh, err)
		}
	}
	return nil
}

// dialIngest opens a migration stream to the target: dial, hello,
// OpMigrate ingest handshake. already=true reports the target already
// owns the range (no stream; the connection is closed). done is set
// when the target's ack carries the post-handoff commit flag.
func dialIngest(target string, sh int, done *atomic.Bool) (sess *repl.Session, already bool, version uint64, err error) {
	var b wire.Buf
	b.U8(1) // mode 1: ingest
	b.U32(uint32(sh))
	b.U16(0)
	nc, br, payload, err := repl.Dial(target, wire.OpMigrate, b.B)
	if err != nil {
		return nil, false, 0, err
	}
	defer func() {
		if sess == nil {
			nc.Close()
		}
	}()
	d := wire.Dec{B: payload}
	alreadyB := d.U8()
	version = d.U64()
	if !d.Done() {
		return nil, false, 0, errors.New("malformed ingest handshake response")
	}
	if alreadyB != 0 {
		return nil, true, version, nil
	}
	// FrameMigAck: applied u64 | done u8.
	ack := func(code uint8, payload []byte) (uint64, error) {
		if code != wire.FrameMigAck {
			return 0, fmt.Errorf("unexpected frame %d on migration stream", code)
		}
		d := wire.Dec{B: payload}
		applied, doneB := d.U64(), d.U8()
		if !d.Done() {
			return 0, errors.New("malformed migration ack")
		}
		if doneB != 0 {
			done.Store(true)
		}
		return applied, nil
	}
	return repl.NewSession(nc, br, bufio.NewWriterSize(nc, 64<<10), migWindow, nil, ack), false, version, nil
}
