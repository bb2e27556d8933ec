package repl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"blinktree/internal/shard"
	"blinktree/internal/verify"
	"blinktree/internal/wal"
	"blinktree/internal/wire"
)

// FeedConfig tunes one primary-side follower feed. The zero value of
// every field selects a sensible default.
type FeedConfig struct {
	// Window is the backpressure bound: the maximum number of shipped
	// records not yet acknowledged by the follower before the feed
	// pauses streaming. Default 65536.
	Window int
	// Logf receives feed-level notices. Default: discard.
	Logf func(format string, args ...any)
	// RootEvery is how often a verified primary seals and publishes a
	// per-shard state root to this follower. Default 1s. Ignored when
	// the primary is unverified.
	RootEvery time.Duration
}

func (c *FeedConfig) fill() {
	if c.Window <= 0 {
		c.Window = 1 << 16
	}
	if c.RootEvery <= 0 {
		c.RootEvery = time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// FeedStats is a snapshot of one feed's counters for metrics: Lag is
// records shipped but not yet acknowledged by the follower; Roots is
// the number of sealed state roots published on a verified feed.
type FeedStats struct {
	Remote  string
	Shipped uint64
	Acked   uint64
	Resets  uint64
	Roots   uint64
	LastAck time.Time
}

// Lag returns shipped-minus-acked records.
func (s FeedStats) Lag() uint64 {
	if s.Shipped < s.Acked {
		return 0
	}
	return s.Shipped - s.Acked
}

// Registry tracks the live feeds of one server for /metrics.
type Registry struct {
	mu    sync.Mutex
	feeds map[*Feed]struct{}
}

func (g *Registry) add(f *Feed) {
	g.mu.Lock()
	if g.feeds == nil {
		g.feeds = make(map[*Feed]struct{})
	}
	g.feeds[f] = struct{}{}
	g.mu.Unlock()
}

func (g *Registry) remove(f *Feed) {
	g.mu.Lock()
	delete(g.feeds, f)
	g.mu.Unlock()
}

// Snapshot returns the stats of every live feed.
func (g *Registry) Snapshot() []FeedStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]FeedStats, 0, len(g.feeds))
	for f := range g.feeds {
		out = append(out, f.stats())
	}
	return out
}

// Feed streams one follower's replication feed: one transfer Source per
// shard multiplexed onto one Session, with snapshot bootstrap for
// positions the log no longer covers and, on a verified primary,
// sealed state roots published at exact stream positions.
type Feed struct {
	r    *shard.Router
	cfg  FeedConfig
	sess *Session

	resets atomic.Uint64
	roots  atomic.Uint64
}

func (f *Feed) stats() FeedStats {
	return FeedStats{
		Remote:  f.sess.remote,
		Shipped: f.sess.shipped.Load(),
		Acked:   f.sess.acked.Load(),
		Resets:  f.resets.Load(),
		Roots:   f.roots.Load(),
		LastAck: time.Unix(0, f.sess.lastAck.Load()),
	}
}

// ServeFeed runs a follower feed on an established connection whose
// OpFollow handshake already succeeded (the OK response is on the
// wire). pos is the follower's per-shard positions from the handshake.
// It returns when the connection dies, a shard errors, or stop closes;
// the connection is closed on return. reg, when non-nil, exposes the
// feed for metrics while it runs.
func ServeFeed(nc net.Conn, br *bufio.Reader, bw *bufio.Writer, r *shard.Router, pos []Position, cfg FeedConfig, stop <-chan struct{}, reg *Registry) error {
	cfg.fill()
	shards := r.Shards()
	f := &Feed{r: r, cfg: cfg}
	f.sess = NewSession(nc, br, bw, cfg.Window, stop, func(code uint8, payload []byte) (uint64, error) {
		if code != wire.FrameAck {
			return 0, fmt.Errorf("sent frame %d, want ack", code)
		}
		return ackApplied(payload, shards)
	})
	defer f.sess.Close()
	if reg != nil {
		reg.add(f)
		defer reg.remove(f)
	}
	err := f.stream(pos)
	if errors.Is(err, errStopped) {
		return nil
	}
	return err
}

// rootSeal is a state root pinned to the exact WAL position it
// covers, waiting for the feed to ship every record below that
// position before it can be published as a FrameRoot.
type rootSeal struct {
	root verify.Hash
	pos  Position
}

// stream is the feed's single writer loop: round-robin over shards,
// ship one frame of whatever each tail holds, bootstrap shards the log
// no longer covers, sleep briefly when everything is caught up.
func (f *Feed) stream(pos []Position) error {
	shards := f.r.Shards()
	srcs := make([]*Source, shards)
	boot := make([]bool, shards) // shard's next round starts with a snapshot
	for i := range srcs {
		srcs[i] = NewSource(f.r.Engine(i), i, f.sess.Ship)
		defer srcs[i].Close()
		if boot[i] = pos[i].fresh(); !boot[i] {
			srcs[i].Resume(pos[i])
		}
	}
	verified := f.r.Verified()
	seals := make([]*rootSeal, shards)
	lastRoot := make([]time.Time, shards)
	var enc wire.Buf
	for {
		shippedThisRound := 0
		for i, src := range srcs {
			if boot[i] {
				f.resets.Add(1)
				if err := src.Bootstrap(); err != nil {
					return err
				}
				boot[i], seals[i] = false, nil
				shippedThisRound++
				continue
			}
			if verified && seals[i] == nil && time.Since(lastRoot[i]) >= f.cfg.RootEvery {
				root, seg, off, err := f.r.Engine(i).SealedRoot()
				if err != nil {
					return err
				}
				seals[i] = &rootSeal{root: root, pos: Position{Seg: seg, Off: off}}
			}
			var limit Position
			if s := seals[i]; s != nil {
				if src.Pos() == s.pos {
					// Every record below the seal has shipped and nothing
					// at or above it: publish the root at this exact
					// boundary.
					enc.Reset()
					enc.U64(s.pos.Seg)
					enc.U64(uint64(s.pos.Off))
					enc.B = append(enc.B, s.root[:]...)
					if err := f.sess.Ship(uint64(i), wire.FrameRoot, enc.B, 0); err != nil {
						return err
					}
					f.roots.Add(1)
					lastRoot[i] = time.Now()
					seals[i] = nil
					shippedThisRound++
					continue
				}
				limit = s.pos
			}
			n, err := src.Drain(limit)
			if errors.Is(err, wal.ErrTruncated) {
				// A checkpoint outran this follower: the suffix it needs
				// is gone. Fall back to a snapshot bootstrap next round.
				f.cfg.Logf("repl feed %s: shard %d position truncated, re-bootstrapping", f.sess.remote, i)
				boot[i] = true
				continue
			}
			if err != nil {
				return err
			}
			if n > 0 {
				shippedThisRound++
			}
		}
		if err := f.sess.Flush(); err != nil {
			return err
		}
		if shippedThisRound == 0 {
			if err := f.sess.wait(feedPoll); err != nil {
				return err
			}
		}
	}
}
