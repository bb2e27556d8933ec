package repl_test

// Tests for the one state-transfer primitive (transfer.go): Source,
// Session and Applier against in-memory sinks and fake connections,
// then the truncation scenario once more through both real callers.
// The racing workload mirrors internal/shard/streamstate_test.go, which
// cannot host these tests itself (repl imports shard).

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"blinktree/internal/base"
	"blinktree/internal/cluster"
	"blinktree/internal/repl"
	"blinktree/internal/server"
	"blinktree/internal/shard"
	"blinktree/internal/wal"
	"blinktree/internal/wire"
)

// openRouter opens a router that closes with the test.
func openRouter(t *testing.T, shards int, opts shard.Options) *shard.Router {
	t.Helper()
	r, err := shard.NewRouter(shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// durable returns the options of a durable source router in a fresh dir.
func durable(t *testing.T) shard.Options {
	return shard.Options{MinPairs: 8, CompressorWorkers: 2, Durable: true, Dir: t.TempDir(), WALNoSync: true}
}

// applySink is the in-memory receiver: it lands each frame in dst the
// way Follower.apply and ServeIngest do, and counts shipped records.
func applySink(dst *shard.Router, shipped *int) repl.Sink {
	ap := repl.NewApplier(dst)
	var recs []wal.Record
	return func(id uint64, code uint8, payload []byte, records int) error {
		switch code {
		case wire.FrameReset:
			return ap.Reset(dst.ShardSpan(int(id)))
		case wire.FrameRecords:
			_, _, rs, err := repl.DecodeRecords(payload, recs[:0])
			if err != nil {
				return err
			}
			if recs = rs; len(rs) != records {
				return fmt.Errorf("frame carries %d records, sink told %d", len(rs), records)
			}
			*shipped += records
			return ap.Apply(rs)
		case wire.FrameSnapEnd:
			return nil
		}
		return fmt.Errorf("unexpected frame code %d", code)
	}
}

// drainAll ships the whole committed tail, re-bootstrapping on
// truncation the way a caller owning the retry policy does.
func drainAll(t *testing.T, src *repl.Source) {
	t.Helper()
	for {
		n, err := src.Drain(repl.Position{})
		if errors.Is(err, wal.ErrTruncated) {
			err = src.Bootstrap()
		} else if err == nil && n == 0 {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// contents reads r's full state.
func contents(t *testing.T, r *shard.Router) map[base.Key]base.Value {
	t.Helper()
	m := make(map[base.Key]base.Value)
	if err := r.Range(0, base.Key(^uint64(0)), func(k base.Key, v base.Value) bool {
		m[k] = v
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSourceConvergesUnderChurn: snapshot ∪ drained tail, applied
// through the shared applier into a second router, equals the source —
// with writers, Checkpoint (rotating and truncating segments) and
// background compression (moving pairs leftward) racing the transfer.
func TestSourceConvergesUnderChurn(t *testing.T) {
	srcR := openRouter(t, 1, durable(t))
	dst := openRouter(t, 1, shard.Options{MinPairs: 8})
	// Pairs the transfer must wipe: the receiver starts dirty.
	for i := uint64(0); i < 100; i++ {
		if _, _, err := dst.Upsert(base.Key(900000000+i), 1); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Dense insert waves followed by sparse deletes keep a steady
			// supply of underfull nodes in the compression queue.
			for wave := 0; ; wave++ {
				select {
				case <-stop:
					return
				default:
				}
				lo := uint64(g)*1000000 + uint64(wave%8)*50000
				for i := uint64(0); i < 256; i++ {
					if _, _, err := srcR.Upsert(base.Key(lo+i), base.Value(wave)); err != nil {
						t.Error(err)
						return
					}
				}
				for i := uint64(0); i < 256; i++ {
					if i%5 == 0 {
						continue
					}
					if err := srcR.Delete(base.Key(lo + i)); err != nil && !errors.Is(err, base.ErrNotFound) {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := srcR.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	shipped := 0
	src := repl.NewSource(srcR.Engine(0), 0, applySink(dst, &shipped))
	defer src.Close()
	if err := src.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	// Chase the churn until a fair volume has crossed; yielding lets the
	// writers and the checkpointer in even on one CPU.
	for deadline := time.Now().Add(20 * time.Second); shipped < 20000; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d records shipped under churn", shipped)
		}
		drainAll(t, src)
		time.Sleep(50 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
	drainAll(t, src)

	if err := equalState(dst, contents(t, srcR)); err != nil {
		t.Fatalf("receiver diverged after %d shipped records: %v", shipped, err)
	}
	if err := srcR.Check(); err != nil {
		t.Fatalf("structural check after transfer: %v", err)
	}
}

// TestSourceTruncationAndCap pins the two edges of Drain on a quiet
// source: a limit stops the stream on that byte, rotations in between
// included, and a checkpoint that truncates the chase segment mid-drain
// surfaces ErrTruncated — after which Bootstrap-again converges exactly,
// deletions the lost records carried included.
func TestSourceTruncationAndCap(t *testing.T) {
	srcR := openRouter(t, 1, durable(t))
	dst := openRouter(t, 1, shard.Options{MinPairs: 8})
	put := func(from, to uint64) {
		t.Helper()
		for i := from; i < to; i++ {
			if _, _, err := srcR.Upsert(base.Key(i), base.Value(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(0, 300)
	shipped := 0
	src := repl.NewSource(srcR.Engine(0), 0, applySink(dst, &shipped))
	defer src.Close()
	if err := src.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if shipped != 300 {
		t.Fatalf("snapshot shipped %d records, want 300", shipped)
	}

	// Cap: 700 records in the chase segment, a rotation, 700 more; the
	// limit sits 300 records into the new segment.
	put(300, 1000)
	seg, err := srcR.Engine(0).WAL().Rotate()
	if err != nil {
		t.Fatal(err)
	}
	put(1000, 1700)
	limit := repl.Position{Seg: seg, Off: wal.SegmentHeaderLen + 300*wal.RecordLen}
	for {
		n, err := src.Drain(limit)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	if src.Pos() != limit || shipped != 300+1000 {
		t.Fatalf("capped drain stopped at %+v after %d records, want %+v after 1300", src.Pos(), shipped, limit)
	}
	if _, err := dst.Search(1299); err != nil {
		t.Fatalf("last record below the cap not applied: %v", err)
	}
	if _, err := dst.Search(1300); !errors.Is(err, base.ErrNotFound) {
		t.Fatalf("record at the cap applied: %v", err)
	}

	// Truncation mid-drain: the source holds the capped segment open.
	// One checkpoint removes it (harmless — the descriptor still reads
	// it and its successor exists); deletes then land in the successor
	// and a second checkpoint removes that too. Those delete records
	// exist nowhere but the new snapshot.
	if err := srcR.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1700; i += 2 {
		if err := srcR.Delete(base.Key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := srcR.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var derr error
	for derr == nil {
		var n int
		if n, derr = src.Drain(repl.Position{}); derr == nil && n == 0 {
			t.Fatal("drain reports caught up across a truncated segment: records silently lost")
		}
	}
	if !errors.Is(derr, wal.ErrTruncated) {
		t.Fatalf("drain over a truncated segment: %v, want ErrTruncated", derr)
	}
	if err := src.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	drainAll(t, src)
	if err := equalState(dst, contents(t, srcR)); err != nil {
		t.Fatalf("receiver diverged after re-bootstrap: %v", err)
	}
	if n := dst.Len(); n != 850 {
		t.Fatalf("receiver holds %d pairs, want the 850 odd keys", n)
	}
}

// clockConn is a net.Conn whose clock the test moves by hand: a Write
// that arrives with no deadline, or one the clock has passed, fails the
// way a real connection's would. Reads block until Close.
type clockConn struct {
	mu       sync.Mutex
	skew     time.Duration // how far the conn's clock runs ahead of time.Now
	deadline time.Time     // on the conn's clock
	written  int
	gateAt   int           // Write blocks on gate once written reaches this
	gated    chan struct{} // closed when a Write is parked on the gate
	gate     chan struct{}
	closed   chan struct{}
}

func (c *clockConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.deadline.IsZero() || !c.deadline.After(time.Now().Add(c.skew)) {
		c.mu.Unlock()
		return 0, os.ErrDeadlineExceeded
	}
	c.written += len(p)
	park := c.gateAt > 0 && c.written >= c.gateAt
	if park {
		c.gateAt = 0
	}
	c.mu.Unlock()
	if park {
		close(c.gated)
		<-c.gate
	}
	return len(p), nil
}

func (c *clockConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t.Add(c.skew)
	c.mu.Unlock()
	return nil
}

func (c *clockConn) wrote() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.written
}

func (c *clockConn) Read([]byte) (int, error) { <-c.closed; return 0, io.EOF }
func (c *clockConn) Close() error {
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
	return nil
}
func (c *clockConn) LocalAddr() net.Addr             { return &net.TCPAddr{} }
func (c *clockConn) RemoteAddr() net.Addr            { return &net.TCPAddr{} }
func (c *clockConn) SetDeadline(t time.Time) error   { return c.SetWriteDeadline(t) }
func (c *clockConn) SetReadDeadline(time.Time) error { return nil }

// TestFeedIdleThenBurstDeadline is the regression for the stale write
// deadline: a feed that sat caught up for longer than the I/O timeout
// and then ships more than its 64 KiB write buffer in one round flushes
// implicitly, mid-round — and that flush must run under a fresh
// deadline, not the one the last explicit flush left behind.
func TestFeedIdleThenBurstDeadline(t *testing.T) {
	const shards = 8
	opts := durable(t)
	r := openRouter(t, shards, opts)

	// Bootstrapping 8 empty shards ships 8 × (Reset 13 B + SnapEnd 21 B).
	const bootstrapBytes = shards * (13 + 21)
	nc := &clockConn{gateAt: bootstrapBytes, gated: make(chan struct{}), gate: make(chan struct{}), closed: make(chan struct{})}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- repl.ServeFeed(nc, bufio.NewReader(nc), bufio.NewWriterSize(nc, 64<<10), r,
			make([]repl.Position, shards), repl.FeedConfig{}, stop, nil)
	}()

	// Park the feed inside the write that completes the bootstrap, so
	// the burst below is entirely in the log before its next round.
	select {
	case <-nc.gated:
	case err := <-done:
		t.Fatalf("feed ended during bootstrap: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("feed never finished bootstrapping")
	}
	// 600 records per shard: each shard's next frame is a full 512
	// records (8.7 KiB), so one round buffers ~70 KiB.
	const perShard = 600
	ops := make([]shard.Op, 0, shards*perShard)
	for sh := 0; sh < shards; sh++ {
		lo, _ := r.ShardSpan(sh)
		for i := 0; i < perShard; i++ {
			ops = append(ops, shard.Op{Kind: shard.OpUpsert, Key: lo + base.Key(i), Value: 1})
		}
	}
	for _, res := range r.ApplyBatch(ops) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	// "Idle" past the timeout, without sleeping: move the conn's clock.
	nc.mu.Lock()
	nc.skew = repl.IOTimeout + time.Second
	nc.mu.Unlock()
	close(nc.gate)

	// Per shard: frames of 512 and 88 records, 33 B of framing each.
	const tailBytes = shards * (2*33 + perShard*17)
	deadline := time.Now().Add(10 * time.Second)
	for nc.wrote() < bootstrapBytes+tailBytes {
		select {
		case err := <-done:
			t.Fatalf("feed torn down by the burst after an idle period: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("feed shipped %d of %d bytes", nc.wrote(), bootstrapBytes+tailBytes)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("feed: %v", err)
	}
}

// ackProxy sits between the two ends of a transfer stream and decides
// when the receiver's acks reach the sender — the one lever that stalls
// a sender at a chosen point (a full ack window) without touching it.
// Everything else is forwarded frame by frame, untouched.
type ackProxy struct {
	ln      net.Listener
	backend string

	mu      sync.Mutex
	hold    bool // queue acks instead of forwarding them
	rearm   int  // re-hold when this shard's SnapEnd passes; -1 = off
	queued  []heldAck
	ackDst  net.Conn
	applied uint64 // cumulative count carried by the last forwarded ack
}

// heldAck is one ack frame the proxy has not forwarded yet.
type heldAck struct {
	code    uint8
	payload []byte
}

func newAckProxy(t *testing.T, backend string) *ackProxy {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &ackProxy{ln: ln, backend: backend, hold: true, rearm: -1}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			front, err := ln.Accept()
			if err != nil {
				return
			}
			back, err := net.Dial("tcp", p.backend)
			if err != nil {
				front.Close()
				continue
			}
			go p.pump(front, back)
			go p.pump(back, front)
		}
	}()
	return p
}

func (p *ackProxy) addr() string { return p.ln.Addr().String() }

// pump forwards one direction: the 8-byte hello, then frames.
func (p *ackProxy) pump(src, dst net.Conn) {
	defer dst.Close()
	br := bufio.NewReader(src)
	if _, err := io.CopyN(dst, br, 8); err != nil {
		return
	}
	for {
		id, code, payload, err := wire.ReadFrame(br, nil)
		if err != nil {
			return
		}
		p.mu.Lock()
		switch {
		case code == wire.FrameAck || code == wire.FrameMigAck:
			p.ackDst = dst
			p.queued = append(p.queued, heldAck{code, payload})
			if !p.hold {
				p.forwardQueuedLocked()
			}
			p.mu.Unlock()
			continue
		case code == wire.FrameSnapEnd && int(id) == p.rearm:
			p.hold, p.rearm = true, -1
		}
		p.mu.Unlock()
		if err := wire.WriteFrame(dst, id, code, payload); err != nil {
			return
		}
	}
}

func (p *ackProxy) forwardQueuedLocked() {
	for _, a := range p.queued {
		// FrameMigAck leads with the applied count; FrameAck ends with it.
		d := wire.Dec{B: a.payload}
		if a.code == wire.FrameAck {
			d.B = a.payload[len(a.payload)-8:]
		}
		p.applied = d.U64()
		wire.WriteFrame(p.ackDst, 0, a.code, a.payload) //nolint:errcheck // a dead stream fails the test elsewhere
	}
	p.queued = nil
}

// releaseUntilSnapEnd lets acks through until shard sh's FrameSnapEnd
// passes, then holds them again.
func (p *ackProxy) releaseUntilSnapEnd(sh int) {
	p.mu.Lock()
	p.hold, p.rearm = false, sh
	p.forwardQueuedLocked()
	p.mu.Unlock()
}

// release lets every ack through from now on.
func (p *ackProxy) release() {
	p.mu.Lock()
	p.hold, p.rearm = false, -1
	p.forwardQueuedLocked()
	p.mu.Unlock()
}

// holding reports whether acks are held, and the applied count the
// sender can have learned.
func (p *ackProxy) holding() (bool, uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hold, p.applied
}

// logBuf collects Logf lines.
type logBuf struct {
	mu    sync.Mutex
	lines []string
}

func (l *logBuf) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logBuf) contains(sub string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.lines {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

// TestTruncationMidTransferBothCallers runs the truncation scenario of
// TestSourceTruncationAndCap through the two real callers of the
// primitive — a follower feed, and Node.Migrate → ServeIngest — over
// real connections. Acks held by a proxy stall the sender twice: once
// inside the snapshot, so a known batch of writes lands in the chase
// segment, and once mid-chase with that segment open, where two
// checkpoints remove it and its successor. On release each caller must
// notice, apply its own retry policy (re-bootstrap) and converge
// exactly; "caught up" would silently lose the writes in between.
func TestTruncationMidTransferBothCallers(t *testing.T) {
	const shards, sh = 2, 1
	type transfer struct {
		window  int                                // the sender's ack window, in records
		dst     *shard.Router                      // receiver
		shipped func() uint64                      // sender-side shipped-records counter
		start   func()                             // begin the transfer, non-blocking
		finish  func(want map[base.Key]base.Value) // await completion, check the caller's own outcome
	}
	cases := []struct {
		name  string
		setup func(t *testing.T, src *shard.Router, logs *logBuf) (*ackProxy, transfer)
	}{
		{"feed", func(t *testing.T, src *shard.Router, logs *logBuf) (*ackProxy, transfer) {
			const window = 2048
			s := server.New(src, server.Config{Addr: "127.0.0.1:0", FollowWindow: window, Logf: logs.logf})
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			p := newAckProxy(t, s.Addr().String())
			dst := openRouter(t, shards, durable(t))
			f, err := repl.NewFollower(dst, repl.FollowerConfig{Primary: p.addr(), AckEvery: 512})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Stop() })
			return p, transfer{
				window: window,
				dst:    dst,
				shipped: func() uint64 {
					if fs := s.ReplStats(); len(fs) == 1 {
						return fs[0].Shipped
					}
					return 0
				},
				start: f.Start,
				finish: func(want map[base.Key]base.Value) {
					waitConverge(t, dst, want)
					// Checkpoints cover every shard, so the idle shard's
					// tail is truncated — and re-bootstrapped — as well.
					if got := f.Stats().Resets; got != 2*shards {
						t.Fatalf("follower saw %d resets, want %d (a bootstrap and a re-bootstrap per shard)", got, 2*shards)
					}
				},
			}
		}},
		{"migrate", func(t *testing.T, src *shard.Router, logs *logBuf) (*ackProxy, transfer) {
			member := func(self, owner string, logf func(string, ...any)) *cluster.Node {
				n, err := cluster.NewNode(cluster.NodeConfig{Self: self, Shards: shards, InitialOwner: owner, Logf: logf})
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
			dst := openRouter(t, shards, durable(t))
			nodeB := member("target", "source", nil)
			s := server.New(dst, server.Config{Addr: "127.0.0.1:0", Cluster: nodeB, Logf: func(string, ...any) {}})
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			p := newAckProxy(t, s.Addr().String())
			nodeA := member("source", "source", logs.logf)
			done := make(chan error, 1)
			return p, transfer{
				window:  1 << 15, // cluster.migWindow
				dst:     dst,
				shipped: func() uint64 { return nodeA.ClusterStats().Shipped },
				start:   func() { go func() { done <- nodeA.Migrate(src, sh, p.addr()) }() },
				finish: func(want map[base.Key]base.Value) {
					select {
					case err := <-done:
						if err != nil {
							t.Fatalf("migrate: %v", err)
						}
					case <-time.After(60 * time.Second):
						t.Fatal("migration never finished")
					}
					if err := equalState(dst, want); err != nil {
						t.Fatalf("target diverged: %v", err)
					}
					if n := src.Len(); n != 0 {
						t.Fatalf("source still holds %d pairs of the migrated range", n)
					}
					if !nodeB.Serving(sh) || nodeA.Serving(sh) {
						t.Fatalf("ownership after handoff: target serving=%v, source serving=%v", nodeB.Serving(sh), nodeA.Serving(sh))
					}
				},
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := openRouter(t, shards, durable(t))
			var logs logBuf
			p, tr := tc.setup(t, src, &logs)

			// Every key lives in shard sh; write applies keys [from, to).
			lo, _ := src.ShardSpan(sh)
			want := make(map[base.Key]base.Value)
			write := func(from, to int, v base.Value) {
				t.Helper()
				ops := make([]shard.Op, 0, to-from)
				for i := from; i < to; i++ {
					ops = append(ops, shard.Op{Kind: shard.OpUpsert, Key: lo + base.Key(i), Value: v})
					want[lo+base.Key(i)] = v
				}
				for _, res := range src.ApplyBatch(ops) {
					if res.Err != nil {
						t.Fatal(res.Err)
					}
				}
			}
			// waitStall blocks until the sender has filled its window
			// against the acks the proxy let through.
			waitStall := func(phase string) {
				t.Helper()
				deadline := time.Now().Add(20 * time.Second)
				for {
					held, applied := p.holding()
					if held && tr.shipped() >= applied+uint64(tr.window) {
						return
					}
					if time.Now().After(deadline) {
						t.Fatalf("sender never stalled %s: held=%v shipped=%d acked=%d window=%d",
							phase, held, tr.shipped(), applied, tr.window)
					}
					time.Sleep(time.Millisecond)
				}
			}

			// A snapshot larger than the window: with acks held from the
			// start the sender stalls inside it — checkpoint lock held,
			// log already rotated to the chase segment.
			snapshot := tr.window + tr.window/2
			write(0, snapshot, 1)
			tr.start()
			waitStall("in the snapshot")
			// More than two windows of chase records: whatever the acks in
			// flight, the next stall falls strictly inside them.
			write(0, 2*tr.window+1024, 2)
			p.releaseUntilSnapEnd(sh)
			waitStall("in the chase")
			if logs.contains("re-bootstrapping") {
				t.Fatal("sender re-bootstrapped before any truncation")
			}

			if err := src.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			write(snapshot, snapshot+100, 3) // exists only in the doomed successor segment
			if err := src.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			p.release()
			tr.finish(want)
			if !logs.contains("re-bootstrapping") {
				t.Fatal("sender converged without re-bootstrapping: the scenario did not truncate its chase segment")
			}
		})
	}
}
