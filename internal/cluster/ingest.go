package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"blinktree/internal/repl"
	"blinktree/internal/shard"
	"blinktree/internal/wal"
	"blinktree/internal/wire"
)

// ingestAckEvery is how many applied records between flow-control acks.
const ingestAckEvery = 1024

// BeginIngest is the target side of the OpMigrate ingest handshake.
// already=true means this node owns the range from a committed prior
// handoff (the source should adopt, no stream follows). On
// (false, nil) the node's migration slot is held and the caller MUST
// follow with ServeIngest, which releases it.
func (n *Node) BeginIngest(sh int) (already bool, version uint64, err error) {
	if err := n.validShard(sh); err != nil {
		return false, 0, err
	}
	if !n.migMu.TryLock() {
		return false, 0, errors.New("cluster: another migration is in progress on this node")
	}
	owner, pending, ver := n.OwnedInfo(sh)
	if owner == n.self {
		n.migMu.Unlock()
		if pending != "" {
			return false, 0, fmt.Errorf("cluster: range %d is fenced outbound toward %s", sh, pending)
		}
		return true, ver, nil
	}
	return false, ver, nil
}

// AbortIngest releases the slot BeginIngest held when the handshake
// response could not be delivered.
func (n *Node) AbortIngest() { n.migMu.Unlock() }

// ServeIngest runs the target side of a migration stream after a
// successful BeginIngest. It lands the transfer frame sequence through
// a repl.Applier — wipe the range on FrameReset, apply FrameRecords
// (the target's own WAL group-commits them, which is what makes the
// takeover durable) — acks periodically for flow control, and on
// FrameHandoff persists ownership BEFORE the final ack: the ack is the
// source's permission to stop owning the range, so the claim must
// already be durable.
func (n *Node) ServeIngest(nc net.Conn, br *bufio.Reader, bw *bufio.Writer, r *shard.Router, sh int) error {
	defer n.migMu.Unlock()
	lo, hi := r.ShardSpan(sh)
	var (
		scratch  []byte
		recs     []wal.Record
		ap       = repl.NewApplier(r)
		enc      wire.Buf
		applied  uint64
		sinceAck int
	)
	sendAck := func(done bool) error {
		enc.Reset()
		enc.U64(applied)
		if done {
			enc.U8(1)
		} else {
			enc.U8(0)
		}
		if err := wire.WriteFrame(bw, 0, wire.FrameMigAck, enc.B); err != nil {
			return err
		}
		nc.SetWriteDeadline(time.Now().Add(repl.IOTimeout))
		sinceAck = 0
		return bw.Flush()
	}
	for {
		nc.SetReadDeadline(time.Now().Add(repl.IOTimeout))
		id, code, payload, err := wire.ReadFrame(br, scratch)
		if err != nil {
			return fmt.Errorf("cluster: ingest range %d: %w", sh, err)
		}
		if cap(payload) > cap(scratch) {
			scratch = payload[:0]
		}
		if int(id) != sh {
			return fmt.Errorf("cluster: ingest frame for range %d on range %d's stream", id, sh)
		}
		switch code {
		case wire.FrameReset:
			// A (re)started stream: drop any partial copy from an
			// earlier attempt before the fresh snapshot lands.
			if err := ap.Reset(lo, hi); err != nil {
				return fmt.Errorf("cluster: wipe range %d: %w", sh, err)
			}
		case wire.FrameSnapEnd:
			// The snapshot/tail boundary a follower commits its position
			// at; a migration target keeps no position, so nothing to do.
		case wire.FrameRecords:
			_, _, rs, err := repl.DecodeRecords(payload, recs[:0])
			if err != nil {
				return err
			}
			recs = rs
			for _, rec := range recs {
				if rec.Key < lo || rec.Key > hi {
					return fmt.Errorf("cluster: record for key %d outside range %d [%d,%d]", rec.Key, sh, lo, hi)
				}
			}
			if err := ap.Apply(recs); err != nil {
				return fmt.Errorf("cluster: ingest range %d: %w", sh, err)
			}
			applied += uint64(len(recs))
			n.ingested.Add(uint64(len(recs)))
			if sinceAck += len(recs); sinceAck >= ingestAckEvery {
				if err := sendAck(false); err != nil {
					return err
				}
			}
		case wire.FrameHandoff:
			d := wire.Dec{B: payload}
			ver := d.U64()
			if !d.Done() {
				return errors.New("cluster: malformed handoff frame")
			}
			if err := n.activate(sh, ver); err != nil {
				return fmt.Errorf("cluster: persist takeover of range %d: %w", sh, err)
			}
			n.logf("cluster: took over range %d at map v%d (%d records ingested)", sh, ver, applied)
			return sendAck(true)
		default:
			return fmt.Errorf("cluster: unexpected frame %d on migration stream", code)
		}
	}
}
