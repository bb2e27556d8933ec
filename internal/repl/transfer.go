package repl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"blinktree/internal/base"
	"blinktree/internal/shard"
	"blinktree/internal/wal"
	"blinktree/internal/wire"
)

const (
	// IOTimeout bounds every write on a transfer stream and the wait for
	// ack progress on a full window: a peer silent for this long is
	// indistinguishable from a dead one. It is what stops a stalled (or
	// malicious) peer from wedging a snapshot scan — and with it the
	// engine's checkpoint lock — forever.
	IOTimeout = 30 * time.Second
	// dialTimeout bounds a stream's dial + handshake.
	dialTimeout = 5 * time.Second
	// feedPoll is how long a feed sleeps when every shard is caught up
	// with its committer.
	feedPoll = 2 * time.Millisecond
)

// Sink ships one frame of a transfer stream. records is the number of
// records the frame carries (0 for control frames); a sink with flow
// control blocks on it. Session.Ship is the real one; tests collect
// frames in memory.
type Sink func(id uint64, code uint8, payload []byte, records int) error

// Source produces one shard's transfer stream (the package doc has the
// contract): FrameReset, the snapshot as FrameRecords at position 0 —
// apply without advancing — FrameSnapEnd, then the committed log tail
// as positioned FrameRecords. Not safe for concurrent use.
type Source struct {
	eng  *shard.Engine
	id   uint64
	ship Sink
	tail *wal.TailReader
	recs []wal.Record
	enc  wire.Buf
}

// NewSource prepares a source for shard sh (the frame id) of eng.
// Position it with Resume or Bootstrap before the first Drain.
func NewSource(eng *shard.Engine, sh int, ship Sink) *Source {
	return &Source{eng: eng, id: uint64(sh), ship: ship, recs: make([]wal.Record, 0, maxFrameRecords)}
}

// Resume positions the tail at p — a position the receiver already
// holds the state for — without shipping a snapshot. The position is
// validated lazily: a Drain reports ErrTruncated if the log no longer
// reaches back to it.
func (s *Source) Resume(p Position) {
	s.Close()
	s.tail = wal.NewTailReader(s.eng.WALDir(), p.Seg, p.Off)
}

// Pos returns the position of the next unshipped tail record.
func (s *Source) Pos() Position {
	seg, off := s.tail.Pos()
	return Position{Seg: seg, Off: off}
}

// Close releases the tail's open segment file.
func (s *Source) Close() {
	if s.tail != nil {
		s.tail.Close()
	}
}

// Bootstrap ships the shard from scratch — reset, snapshot, snapshot
// end — and leaves the tail at the start of the resume segment. The
// snapshot scan holds the engine's checkpoint lock, so a sink that
// blocks on backpressure inside it stalls checkpoints too — the price
// of never losing a pair between snapshot and stream. It pauses no
// compression: §5.4 repair goes on under a stalled follower.
func (s *Source) Bootstrap() error {
	if err := s.ship(s.id, wire.FrameReset, nil, 0); err != nil {
		return err
	}
	recs := s.recs[:0]
	shipRecs := func() error {
		appendRecords(&s.enc, 0, 0, recs)
		n := len(recs)
		recs = recs[:0]
		return s.ship(s.id, wire.FrameRecords, s.enc.B, n)
	}
	seg, err := s.eng.StreamState(func(k base.Key, v base.Value) error {
		recs = append(recs, wal.Record{Kind: wal.KindPut, Key: k, Value: v})
		if len(recs) == maxFrameRecords {
			return shipRecs()
		}
		return nil
	})
	if err == nil && len(recs) > 0 {
		err = shipRecs()
	}
	if err != nil {
		return err
	}
	s.enc.Reset()
	s.enc.U64(seg)
	if err := s.ship(s.id, wire.FrameSnapEnd, s.enc.B, 0); err != nil {
		return err
	}
	s.Resume(Position{Seg: seg, Off: wal.SegmentHeaderLen})
	return nil
}

// Drain ships the next frame of committed tail records and returns how
// many it carried; 0 means caught up with the committer (or with
// limit). One frame per call keeps a caller multiplexing several
// sources fair; a caller with one source loops until 0. A non-zero
// limit is a byte-exact stop: no record at or beyond it ships, however
// many rotations lie in between, so the caller can publish something
// bound to that position (a sealed root) at exactly that point in the
// stream. wal.ErrTruncated means a checkpoint removed the segment the
// tail stood in; only another Bootstrap recovers.
func (s *Source) Drain(limit Position) (int, error) {
	recs, err := s.tail.NextUntil(maxFrameRecords, limit.Seg, limit.Off, s.recs[:0])
	if err != nil || len(recs) == 0 {
		return 0, err
	}
	seg, off := s.tail.Pos()
	appendRecords(&s.enc, seg, off, recs)
	return len(recs), s.ship(s.id, wire.FrameRecords, s.enc.B, len(recs))
}

// Dial opens a stream's connection from the side that initiates it: TCP
// dial, hello exchange, then the one request that turns the connection
// into a stream (OpFollow, OpMigrate) and its response payload.
// dialTimeout covers all of it and is lifted on success. A refusal comes
// back as the wire.StatusError of its status code.
func Dial(addr string, op uint8, req []byte) (nc net.Conn, br *bufio.Reader, resp []byte, err error) {
	if nc, err = net.DialTimeout("tcp", addr, dialTimeout); err != nil {
		return nil, nil, nil, err
	}
	defer func() {
		if err != nil {
			nc.Close()
		}
	}()
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	nc.SetDeadline(time.Now().Add(dialTimeout))
	if err = wire.WriteHello(nc); err != nil {
		return nil, nil, nil, err
	}
	br = bufio.NewReaderSize(nc, 64<<10)
	if err = wire.ReadHello(br); err != nil {
		return nil, nil, nil, fmt.Errorf("hello: %w", err)
	}
	if err = wire.WriteFrame(nc, 1, op, req); err != nil {
		return nil, nil, nil, err
	}
	_, status, resp, err := wire.ReadFrame(br, nil)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("handshake: %w", err)
	}
	if status != wire.StatusOK {
		return nil, nil, nil, wire.StatusError(status, string(resp))
	}
	nc.SetDeadline(time.Time{})
	return nc, br, resp, nil
}

// AckDecoder parses one receiver→sender frame and returns the
// receiver's cumulative applied-record count for this session. It is
// the only part of a Session each stream kind supplies.
type AckDecoder func(code uint8, payload []byte) (applied uint64, err error)

// errStopped ends a session cleanly when its stop channel closes.
var errStopped = errors.New("repl: session stopped")

// Session is the sender's half of a transfer connection: a buffered
// frame writer bounded by a window of shipped-minus-acked records, plus
// the goroutine that reads the acks. One goroutine writes
// (Ship/Flush/Await); Close may race it.
type Session struct {
	nc     net.Conn
	bw     *bufio.Writer
	remote string
	window uint64
	stop   <-chan struct{} // nil = never

	shipped atomic.Uint64
	acked   atomic.Uint64
	lastAck atomic.Int64 // unix nanos

	kick    chan struct{} // 1-buffered; readAcks nudges Await
	dead    chan struct{} // closed when the ack reader exits
	deadErr error         // set before dead closes
}

// NewSession starts a session on an established connection whose
// handshake is done, and its ack reader. Close must be called.
func NewSession(nc net.Conn, br *bufio.Reader, bw *bufio.Writer, window int, stop <-chan struct{}, ack AckDecoder) *Session {
	s := &Session{
		nc: nc, bw: bw,
		remote: nc.RemoteAddr().String(),
		window: uint64(window),
		stop:   stop,
		kick:   make(chan struct{}, 1),
		dead:   make(chan struct{}),
	}
	s.lastAck.Store(time.Now().UnixNano()) // liveness baseline until the first real ack
	nc.SetReadDeadline(time.Time{})
	go s.readAcks(br, ack)
	return s
}

// Close closes the connection and waits for the ack reader to exit.
func (s *Session) Close() {
	s.nc.Close()
	<-s.dead
}

// Shipped returns the number of records shipped on this session.
func (s *Session) Shipped() uint64 { return s.shipped.Load() }

// room reports whether the ack window has space for another frame.
func (s *Session) room() bool { return s.shipped.Load()-s.acked.Load() < s.window }

// Ship is the session's Sink: it waits for window room when the frame
// carries records, then buffers the frame. The write deadline is set on
// every write, not only in Flush — a frame that overflows the buffer
// flushes implicitly, and must not do so under a deadline left behind
// by a flush long ago.
func (s *Session) Ship(id uint64, code uint8, payload []byte, records int) error {
	if err := s.wait(0); err != nil {
		return err
	}
	if records > 0 {
		if err := s.Await(s.room); err != nil {
			return err
		}
	}
	s.nc.SetWriteDeadline(time.Now().Add(IOTimeout))
	if err := wire.WriteFrame(s.bw, id, code, payload); err != nil {
		return err
	}
	s.shipped.Add(uint64(records))
	return nil
}

// Flush pushes buffered frames to the wire.
func (s *Session) Flush() error {
	if s.bw.Buffered() == 0 {
		return nil
	}
	s.nc.SetWriteDeadline(time.Now().Add(IOTimeout))
	return s.bw.Flush()
}

// Await blocks until cond — a predicate over what acks change — holds.
// It flushes first (the receiver cannot ack what it has not been sent)
// and fails once the receiver has made no ack progress for IOTimeout.
// A cond already true when the connection dies still wins.
func (s *Session) Await(cond func() bool) error {
	if cond() {
		return nil
	}
	if err := s.Flush(); err != nil {
		return err
	}
	start := time.Now()
	for !cond() {
		progress := start
		if last := time.Unix(0, s.lastAck.Load()); last.After(progress) {
			progress = last
		}
		if since := time.Since(progress); since > IOTimeout {
			return fmt.Errorf("repl: peer %s stalled: no ack for %v", s.remote, since.Round(time.Second))
		}
		if err := s.wait(100 * time.Millisecond); err != nil {
			if cond() {
				return nil
			}
			return err
		}
	}
	return nil
}

// wait sleeps up to d — or until an ack arrives — and reports a stopped
// or dead session. wait(0) is the non-blocking liveness poll.
func (s *Session) wait(d time.Duration) error {
	select {
	case <-s.stop:
		return errStopped
	case <-s.dead:
		return s.deadErr
	default:
	}
	if d == 0 {
		return nil
	}
	select {
	case <-s.stop:
		return errStopped
	case <-s.dead:
		return s.deadErr
	case <-s.kick:
	case <-time.After(d):
	}
	return nil
}

// readAcks is the session's read half: every incoming frame goes to the
// decoder, advances the acked counter and nudges a blocked Await. Any
// read or decode error — Close's included — marks the session dead; the
// writer observes it on its next call.
func (s *Session) readAcks(br *bufio.Reader, ack AckDecoder) {
	defer close(s.dead)
	var buf []byte
	for {
		_, code, payload, err := wire.ReadFrame(br, buf)
		if err != nil {
			s.deadErr = fmt.Errorf("repl: peer %s: %w", s.remote, err)
			return
		}
		if cap(payload) > cap(buf) {
			buf = payload[:0]
		}
		applied, err := ack(code, payload)
		if err != nil {
			s.deadErr = fmt.Errorf("repl: peer %s: %w", s.remote, err)
			return
		}
		s.acked.Store(applied)
		s.lastAck.Store(time.Now().UnixNano())
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
}

// Applier is the receiving half: it lands a transfer stream's frames in
// a router. Everything goes through ApplyBatch, so a durable receiver
// logs and group-commits what it applies — its own recovery then
// reproduces the transfer, wipe included.
type Applier struct {
	r   *shard.Router
	ops []shard.Op
}

// NewApplier returns an applier over r.
func NewApplier(r *shard.Router) *Applier { return &Applier{r: r} }

// Apply re-applies shipped records — puts as upserts, dels as
// delete-if-present — exactly the WAL replay contract, which is what
// makes at-least-once delivery safe.
func (a *Applier) Apply(recs []wal.Record) error {
	a.ops = a.ops[:0]
	for _, r := range recs {
		switch r.Kind {
		case wal.KindPut:
			a.ops = append(a.ops, shard.Op{Kind: shard.OpUpsert, Key: r.Key, Value: r.Value})
		case wal.KindDel:
			a.ops = append(a.ops, shard.Op{Kind: shard.OpDelete, Key: r.Key})
		}
	}
	return a.run()
}

// Reset deletes every pair in [lo, hi] — what FrameReset asks for ahead
// of a snapshot, since a snapshot cannot say what is no longer there.
func (a *Applier) Reset(lo, hi base.Key) error {
	const batch = 2048
	for {
		a.ops = a.ops[:0]
		err := a.r.Range(lo, hi, func(k base.Key, _ base.Value) bool {
			a.ops = append(a.ops, shard.Op{Kind: shard.OpDelete, Key: k})
			return len(a.ops) < batch
		})
		if err != nil || len(a.ops) == 0 {
			return err
		}
		if err := a.run(); err != nil {
			return err
		}
	}
}

// run executes a.ops, tolerating deletes of absent keys.
func (a *Applier) run() error {
	for i, res := range a.r.ApplyBatch(a.ops) {
		if res.Err != nil && !(a.ops[i].Kind == shard.OpDelete && errors.Is(res.Err, base.ErrNotFound)) {
			return fmt.Errorf("repl: apply: %w", res.Err)
		}
	}
	return nil
}
