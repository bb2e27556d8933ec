package repl

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"blinktree/internal/shard"
	"blinktree/internal/verify"
	"blinktree/internal/wal"
	"blinktree/internal/wire"
)

// PositionsFile is the name of the follower's durable position record,
// stored beside the per-shard WAL directories.
const PositionsFile = "replpos"

// FollowerConfig tunes a Follower. Primary is required; everything
// else defaults.
type FollowerConfig struct {
	// Primary is the primary server's wire address (host:port).
	Primary string
	// Dir is where per-shard positions persist (the follower's
	// durability directory). Empty = positions live only in memory:
	// every restart bootstraps from a fresh snapshot.
	Dir string
	// AckEvery is how many applied records between acks (and position
	// persists). Default 1024.
	AckEvery int
	// Logf receives connection-level notices. Default: discard.
	Logf func(format string, args ...any)
}

// followerBackoff is the initial reconnect delay after a broken
// session; it doubles up to 4s.
const followerBackoff = 250 * time.Millisecond

func (c *FollowerConfig) fill() {
	if c.AckEvery <= 0 {
		c.AckEvery = 1024
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// FollowerStats is a snapshot of a follower's replication counters.
type FollowerStats struct {
	// Applied counts records applied over the follower's lifetime
	// (including snapshot bootstrap pairs).
	Applied uint64
	// Resets counts snapshot bootstraps (fresh start, or the primary
	// checkpointed past this follower's position).
	Resets uint64
	// Connected reports a live session with the primary.
	Connected bool
	// Positions are the current per-shard WAL positions.
	Positions []Position
	// RootChecks counts primary-published state roots this follower
	// recomputed locally and matched (verified replication).
	RootChecks uint64
	// LastErr is the most recent session error ("" when none).
	LastErr string
}

// Follower replicates a primary's WAL into a local Router: it dials,
// handshakes OpFollow with its durable per-shard positions, applies
// the streamed records through ApplyBatch — on a durable router that
// appends to the follower's own WAL and group-commits, which is what
// makes the follower promotable — and acknowledges periodically.
// Broken sessions reconnect with backoff and resume from the acked
// positions; re-applied records are idempotent by the WAL's replay
// contract.
type Follower struct {
	r   *shard.Router
	cfg FollowerConfig

	mu      sync.Mutex
	pos     []Position
	lastErr string

	applied    atomic.Uint64
	resets     atomic.Uint64
	rootChecks atomic.Uint64
	connected  atomic.Bool

	stopMu  sync.Mutex // serializes Stop (e.g. concurrent promotions)
	stop    chan struct{}
	done    chan struct{}
	started bool
}

// NewFollower prepares a follower for r, loading persisted positions
// from cfg.Dir when present. A missing, torn, or mismatched position
// file degrades to a fresh bootstrap — never an error.
func NewFollower(r *shard.Router, cfg FollowerConfig) (*Follower, error) {
	if cfg.Primary == "" {
		return nil, errors.New("repl: FollowerConfig.Primary required")
	}
	cfg.fill()
	f := &Follower{
		r:    r,
		cfg:  cfg,
		pos:  make([]Position, r.Shards()),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if cfg.Dir != "" {
		if pos, ok := loadPositions(filepath.Join(cfg.Dir, PositionsFile), r.Shards()); ok {
			f.pos = pos
		}
	}
	return f, nil
}

// Start launches the replication loop. Safe against a racing Stop:
// a follower stopped (e.g. promoted) before Start simply never runs.
func (f *Follower) Start() {
	f.stopMu.Lock()
	defer f.stopMu.Unlock()
	if f.started {
		return // already running, or Stop won the race and closed done
	}
	f.started = true
	go f.run()
}

// Stop ends replication: the session closes, positions persist, and
// Stop returns once the loop has exited. Idempotent and safe for
// concurrent use (two clients racing to promote call it together).
// Promotion is Stop plus whatever the serving layer does to accept
// writes.
func (f *Follower) Stop() error {
	f.stopMu.Lock()
	select {
	case <-f.stop:
	default:
		close(f.stop)
	}
	if !f.started {
		close(f.done)
		f.started = true
	}
	f.stopMu.Unlock()
	<-f.done
	return f.persistPositions()
}

// Stats returns a snapshot of the follower's counters.
func (f *Follower) Stats() FollowerStats {
	f.mu.Lock()
	pos := append([]Position(nil), f.pos...)
	lastErr := f.lastErr
	f.mu.Unlock()
	return FollowerStats{
		Applied:    f.applied.Load(),
		Resets:     f.resets.Load(),
		Connected:  f.connected.Load(),
		Positions:  pos,
		RootChecks: f.rootChecks.Load(),
		LastErr:    lastErr,
	}
}

// run is the reconnect loop.
func (f *Follower) run() {
	defer close(f.done)
	backoff := followerBackoff
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		progressed, err := f.session()
		if err == nil {
			return // clean stop
		}
		f.mu.Lock()
		f.lastErr = err.Error()
		f.mu.Unlock()
		if errors.Is(err, errPermanent) {
			f.cfg.Logf("repl follower: %v — giving up (fix the configuration and restart)", err)
			return
		}
		if progressed {
			backoff = followerBackoff
		}
		f.cfg.Logf("repl follower: %v (reconnecting in %v)", err, backoff)
		select {
		case <-f.stop:
			return
		case <-time.After(backoff):
		}
		if backoff < 4*time.Second {
			backoff *= 2
		}
	}
}

// errPermanent wraps handshake rejections that retrying cannot fix
// (shard-count mismatch, volatile primary).
var errPermanent = errors.New("permanent")

// session runs one connection: dial, handshake, apply until the
// connection dies or stop closes. It returns (_, nil) only on clean
// stop; progressed reports whether any record was applied (resets the
// reconnect backoff).
func (f *Follower) session() (progressed bool, err error) {
	// Handshake: ship our positions, expect OK + the primary's shard
	// count (already validated server-side; double-checked here).
	var enc wire.Buf
	f.mu.Lock()
	AppendFollowRequest(&enc, f.pos)
	f.mu.Unlock()
	nc, br, payload, err := Dial(f.cfg.Primary, wire.OpFollow, enc.B)
	if err != nil {
		var refusal *wire.Error
		if errors.As(err, &refusal) && refusal.Code == wire.StatusBadRequest {
			return false, fmt.Errorf("%w: primary rejected follow: %v", errPermanent, err)
		}
		return false, fmt.Errorf("repl: follow %s: %w", f.cfg.Primary, err)
	}
	defer nc.Close()
	d := wire.Dec{B: payload}
	if n := int(d.U32()); d.Err != nil || n != f.r.Shards() {
		return false, fmt.Errorf("%w: primary has %d shards, follower has %d", errPermanent, n, f.r.Shards())
	}
	f.connected.Store(true)
	defer f.connected.Store(false)
	f.mu.Lock()
	f.lastErr = ""
	f.mu.Unlock()

	return f.apply(nc, br, bufio.NewWriterSize(nc, 16<<10))
}

// apply is the session's frame loop. Acks carry the record count
// applied within THIS session, matching the feed's shipped counter for
// lag accounting; positions in the ack are the durable resume points.
func (f *Follower) apply(nc net.Conn, br *bufio.Reader, bw *bufio.Writer) (progressed bool, err error) {
	var (
		scratch        []byte
		recs           []wal.Record
		ap             = NewApplier(f.r)
		enc            wire.Buf
		sessionApplied uint64
		sinceAck       int
	)
	sendAck := func() error {
		f.mu.Lock()
		appendAck(&enc, f.pos, sessionApplied)
		f.mu.Unlock()
		if err := wire.WriteFrame(bw, 0, wire.FrameAck, enc.B); err != nil {
			return err
		}
		nc.SetWriteDeadline(time.Now().Add(IOTimeout))
		if err := bw.Flush(); err != nil {
			return err
		}
		sinceAck = 0
		return f.persistPositions()
	}
	handle := func(id uint64, code uint8, payload []byte) error {
		sh := int(id)
		if sh < 0 || sh >= f.r.Shards() {
			return fmt.Errorf("repl: frame for shard %d of %d", sh, f.r.Shards())
		}
		switch code {
		case wire.FrameRecords:
			seg, endOff, rs, err := DecodeRecords(payload, recs[:0])
			if err != nil {
				return err
			}
			recs = rs
			if err := ap.Apply(recs); err != nil {
				return err
			}
			if seg != 0 {
				f.mu.Lock()
				f.pos[sh] = Position{Seg: seg, Off: endOff}
				f.mu.Unlock()
			}
			f.applied.Add(uint64(len(recs)))
			sessionApplied += uint64(len(recs))
			sinceAck += len(recs)
			progressed = true
			if sinceAck >= f.cfg.AckEvery {
				return sendAck()
			}
			return nil
		case wire.FrameReset:
			f.resets.Add(1)
			return ap.Reset(f.r.ShardSpan(sh))
		case wire.FrameRoot:
			if len(payload) != 48 {
				return fmt.Errorf("repl: malformed root frame")
			}
			seg := binary.LittleEndian.Uint64(payload[0:8])
			off := int64(binary.LittleEndian.Uint64(payload[8:16]))
			var root verify.Hash
			copy(root[:], payload[16:])
			if !f.r.Verified() {
				return nil // primary is verified, follower isn't: nothing to compare
			}
			f.mu.Lock()
			pos := f.pos[sh]
			f.mu.Unlock()
			if pos.Seg != seg || pos.Off != off {
				// Not at the sealed boundary (mid-bootstrap, or a
				// resumed session skipped frames the primary already
				// counted): comparing here would false-alarm, skip.
				return nil
			}
			// This goroutine is the only mutator of the follower's
			// router, so the root is exact at this position.
			own, err := f.r.Engine(sh).VerifyRoot()
			if err != nil {
				return err
			}
			if own != root {
				f.cfg.Logf("repl follower: ALARM: state root divergence at shard %d seg %d off %d: primary %x, follower %x",
					sh, seg, off, root[:8], own[:8])
				return fmt.Errorf("%w: state root divergence at shard %d (seg %d off %d): data divergence or tampering detected, refusing to continue",
					errPermanent, sh, seg, off)
			}
			f.rootChecks.Add(1)
			return nil
		case wire.FrameSnapEnd:
			d := wire.Dec{B: payload}
			seg := d.U64()
			if !d.Done() || seg == 0 {
				return fmt.Errorf("repl: malformed snap-end frame")
			}
			f.mu.Lock()
			f.pos[sh] = Position{Seg: seg, Off: wal.SegmentHeaderLen}
			f.mu.Unlock()
			return sendAck()
		default:
			return fmt.Errorf("repl: unexpected frame code %d", code)
		}
	}
	// next reads one frame — the caller has made sure it will not block
	// mid-frame — and handles it.
	next := func() error {
		id, code, payload, err := wire.ReadFrame(br, scratch)
		if err != nil {
			return err
		}
		if cap(payload) > cap(scratch) {
			scratch = payload[:0]
		}
		return handle(id, code, payload)
	}
	// drainBuffered processes the complete frames already sitting in
	// the read buffer. Stopping without this could drop a received
	// FrameSnapEnd, losing a just-finished bootstrap's position commit
	// and forcing a needless re-bootstrap on the next session.
	drainBuffered := func() error {
		for br.Buffered() >= 4 {
			p, err := br.Peek(4)
			if err != nil {
				return nil
			}
			flen := int(binary.LittleEndian.Uint32(p))
			if flen < 9 || flen > wire.MaxFrame+9 || br.Buffered() < 4+flen {
				return nil
			}
			if err := next(); err != nil {
				return err
			}
		}
		return nil
	}
	for {
		// Deadline expiry is only taken on Peek — which never consumes —
		// so waking to observe stop cannot tear a frame (the same
		// discipline as the server's gather loop).
		select {
		case <-f.stop:
			if err := drainBuffered(); err != nil {
				return progressed, err
			}
			if sinceAck > 0 {
				sendAck() //nolint:errcheck // best effort on the way out
			}
			return progressed, nil
		default:
		}
		nc.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		if _, err := br.Peek(4); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				if sinceAck > 0 {
					if err := sendAck(); err != nil {
						return progressed, err
					}
				}
				continue
			}
			return progressed, err
		}
		nc.SetReadDeadline(time.Now().Add(IOTimeout))
		if err := next(); err != nil {
			return progressed, err
		}
	}
}

// persistPositions atomically rewrites the position file (no-op
// without a Dir) through wal.WriteFileDurable — a crash leaves either
// the old file or the new one, and a torn file fails its CRC and
// degrades to a bootstrap.
func (f *Follower) persistPositions() error {
	if f.cfg.Dir == "" {
		return nil
	}
	f.mu.Lock()
	pos := append([]Position(nil), f.pos...)
	f.mu.Unlock()
	buf := make([]byte, 0, 16+16*len(pos))
	buf = append(buf, 'B', 'L', 'R', 'P')
	buf = binary.LittleEndian.AppendUint32(buf, 1)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pos)))
	for _, p := range pos {
		buf = binary.LittleEndian.AppendUint64(buf, p.Seg)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Off))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crc32.MakeTable(crc32.Castagnoli)))
	return wal.WriteFileDurable(filepath.Join(f.cfg.Dir, PositionsFile), buf)
}

// loadPositions reads a persisted position file; ok=false (fresh
// bootstrap) for a missing, torn, or mismatched file.
func loadPositions(path string, shards int) ([]Position, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	if len(data) < 16 || string(data[0:4]) != "BLRP" ||
		binary.LittleEndian.Uint32(data[4:8]) != 1 {
		return nil, false
	}
	n := int(binary.LittleEndian.Uint32(data[8:12]))
	if n != shards || len(data) != 12+16*n+4 {
		return nil, false
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)) != sum {
		return nil, false
	}
	pos := make([]Position, n)
	for i := range pos {
		o := 12 + 16*i
		pos[i] = Position{
			Seg: binary.LittleEndian.Uint64(data[o:]),
			Off: int64(binary.LittleEndian.Uint64(data[o+8:])),
		}
	}
	return pos, true
}
