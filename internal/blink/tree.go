// Package blink implements the paper's primary contribution: a B-link
// tree ("Blink-tree", §2.1) supporting concurrent searches, insertions
// and deletions in which an insertion holds at most one lock at any
// time — the "overtaking" refinement of Lehman–Yao (§3). It also stores
// in every node the low value and deletion bit the compression
// processes of §5 need, and exposes the hooks they attach to.
//
// Concurrency model (paper §2.2): the node store's Get/Put are
// indivisible; the lock table is a single lock type that excludes other
// lockers but never readers; readers take no locks at all and recover
// from being overtaken by compression via restarts (§5.2).
//
// The baselines the paper argues against are protocols over this same
// tree, not trees of their own: NewLehmanYao runs the comparator [8],
// whose upward phase keeps each split node locked until it holds the
// parent, and the coarse baseline (internal/baseline/coarse) runs this
// tree with no node locks behind one global lock.
package blink

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"blinktree/internal/base"
	"blinktree/internal/locks"
	"blinktree/internal/node"
	"blinktree/internal/reclaim"
)

// RestartPolicy selects how a process recovers after reaching a wrong
// node (§5.2): always from the root, or by backtracking first.
type RestartPolicy int

// Restart policies.
const (
	// RestartFromRoot restarts the search at the root.
	RestartFromRoot RestartPolicy = iota
	// RestartBacktrack first retries from the most recent node on the
	// descent path whose range still admits the key, falling back to
	// the root (the optimization suggested in §5.2).
	RestartBacktrack
)

// DefaultMinPairs is the default k: nodes hold between k and 2k pairs.
const DefaultMinPairs = 16

// maxRestarts bounds wrong-node restarts per logical operation. The
// paper argues restarts are finite in any finite schedule; the bound
// converts a hypothetical livelock into a diagnosable error.
const maxRestarts = 1 << 20

// ErrLivelock is returned when an operation exceeds the restart bound.
var ErrLivelock = errors.New("blink: operation restarted too many times")

// Config parameterizes a Tree.
type Config struct {
	// Store is the node store; nil means a fresh in-memory store.
	Store node.Store
	// Locks is the lock table; nil means a fresh table.
	Locks locks.Locker
	// MinPairs is k: every node holds at most 2k pairs, and compression
	// restores ≥ k. Default DefaultMinPairs; minimum 2.
	MinPairs int
	// Restart selects the wrong-node recovery policy.
	Restart RestartPolicy
	// Reclaimer, when non-nil, brackets every operation in an epoch so
	// deleted pages can be released safely (§5.3).
	Reclaimer *reclaim.Reclaimer
}

// UnderfullEvent describes a node that fell below k pairs after a
// deletion or compression step. It carries everything §5.4 says must go
// on the compression queue: the pointer, the level, the high value, and
// the stack of the path from the root.
type UnderfullEvent struct {
	ID    base.PageID
	Level int
	High  base.Bound
	Stack []base.PageID
}

// Tree is a Sagiv B-link tree, or a Lehman–Yao one when built by
// NewLehmanYao. All exported methods are safe for concurrent use by any
// number of goroutines.
type Tree struct {
	// Read by every operation and written (almost) never; the padding
	// below keeps them off the lines the counters live on.
	store  node.Store
	lt     locks.Locker
	k      int
	pol    RestartPolicy
	rec    *reclaim.Reclaimer
	closed atomic.Bool

	// coupled selects Lehman–Yao's upward phase (NewLehmanYao).
	coupled bool

	// onUnderfull, when set via SetUnderfullHandler, is invoked (while
	// the lock on the node is still held, per §5.4) whenever a deletion
	// leaves a non-root node with fewer than k pairs.
	onUnderfull atomic.Pointer[func(UnderfullEvent)]

	// prefetch, when the store supports read-ahead (node.Prefetcher),
	// hints the next leaf of a sequential scan so a disk-native store
	// has it resident before the hop.
	prefetch func(base.PageID)

	_ [64]byte

	stats Stats
}

// New creates a Tree, bootstrapping an empty root leaf if the store's
// prime block is empty (a store carrying an existing tree is adopted
// as-is).
func New(cfg Config) (*Tree, error) {
	if cfg.Store == nil {
		cfg.Store = node.NewMemStore()
	}
	if cfg.Locks == nil {
		cfg.Locks = locks.NewTable()
	}
	if cfg.MinPairs == 0 {
		cfg.MinPairs = DefaultMinPairs
	}
	if cfg.MinPairs < 2 {
		return nil, fmt.Errorf("blink: MinPairs %d < 2", cfg.MinPairs)
	}
	t := &Tree{
		store: cfg.Store,
		lt:    cfg.Locks,
		k:     cfg.MinPairs,
		pol:   cfg.Restart,
		rec:   cfg.Reclaimer,
	}
	if pf, ok := cfg.Store.(node.Prefetcher); ok {
		t.prefetch = pf.Prefetch
	}
	p, err := t.store.ReadPrime()
	if err != nil {
		return nil, err
	}
	if p.Levels == 0 {
		id, err := t.store.Allocate()
		if err != nil {
			return nil, err
		}
		root := node.New(true, 0)
		root.ID, root.Root = id, true
		root.Low, root.High = base.NegInfBound(), base.PosInfBound()
		if err := t.store.Put(root); err != nil {
			return nil, err
		}
		if err := t.store.WritePrime(node.Prime{
			Root:     id,
			Levels:   1,
			Leftmost: []base.PageID{id},
		}); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// NewLehmanYao creates a Tree that runs the protocol the paper improves
// on, Lehman & Yao's [8], over the same nodes, store and lock-free
// searches as New. Only the upward phase differs: an insertion keeps a
// node it split locked until it holds the parent, moving right there by
// lock coupling, so no other updater can overtake it on the way up — 2
// or 3 locks where Sagiv's insertion holds 1. Deletions never rebalance,
// as in [8]: the tree takes no underfull handler.
func NewLehmanYao(cfg Config) (*Tree, error) {
	t, err := New(cfg)
	if err != nil {
		return nil, err
	}
	t.coupled = true
	return t, nil
}

// MinPairs returns k.
func (t *Tree) MinPairs() int { return t.k }

// capacity returns 2k, the maximum pairs per node.
func (t *Tree) capacity() int { return 2 * t.k }

// Store exposes the node store (used by the compressor, tools and
// checks that are constructed over the same substrate).
func (t *Tree) Store() node.Store { return t.store }

// Locks exposes the lock table shared with the compressor.
func (t *Tree) Locks() locks.Locker { return t.lt }

// Reclaimer returns the configured reclaimer, or nil.
func (t *Tree) Reclaimer() *reclaim.Reclaimer { return t.rec }

// SetUnderfullHandler installs fn as the underfull hook; pass nil to
// remove it. The hook runs on the deleting goroutine while the node's
// lock is held, so it must be fast and must not acquire node locks.
// A Lehman–Yao tree ignores it: [8] never rebalances, and a compressor's
// top-down locks could deadlock against its bottom-up coupling.
func (t *Tree) SetUnderfullHandler(fn func(UnderfullEvent)) {
	if fn == nil || t.coupled {
		t.onUnderfull.Store(nil)
		return
	}
	t.onUnderfull.Store(&fn)
}

// Len returns the number of stored pairs (exact when quiesced).
func (t *Tree) Len() int {
	var n int64
	for i := range t.stats.ops {
		n += t.stats.ops[i].length.Load()
	}
	return int(n)
}

// Height returns the current number of levels.
func (t *Tree) Height() int {
	p, err := t.store.ReadPrime()
	if err != nil {
		return 0
	}
	return p.Levels
}

// Close marks the tree closed. It does not close the store, which the
// caller owns (stores are shared with compressors).
func (t *Tree) Close() error {
	t.closed.Store(true)
	return nil
}

func (t *Tree) checkOpen() error {
	if t.closed.Load() {
		return base.ErrClosed
	}
	return nil
}

// prefetchLink hints the store to fault n's right sibling in ahead of
// a sequential hop. Called once per visited leaf by scans and cursors;
// a no-op when the store has no read-ahead surface.
func (t *Tree) prefetchLink(n *node.Node) {
	if t.prefetch != nil && n.Link != base.NilPage {
		t.prefetch(n.Link)
	}
}

// begin opens a logical operation: it takes the operation's scratch and
// brackets it in the reclamation epoch (§5.3), entering at the slot the
// scratch's stripe names. end closes both.
func (t *Tree) begin() (sc *opScratch, g reclaim.Guard) {
	sc = getScratch()
	if t.rec != nil {
		g = t.rec.EnterAt(sc.stripe)
	}
	return sc, g
}

func (t *Tree) end(sc *opScratch, g reclaim.Guard) {
	if t.rec != nil {
		t.rec.Exit(g)
	}
	putScratch(sc)
}

// waitForLevel blocks until the prime block advertises at least
// level+1 levels and returns the leftmost node of that level. This is
// the §3.3 scenario: a process must insert at a level whose creation
// (by a concurrent root split) has not reached the prime block yet.
func (t *Tree) waitForLevel(level int) (base.PageID, error) {
	for spin := 0; ; spin++ {
		p, err := t.store.ReadPrime()
		if err != nil {
			return base.NilPage, err
		}
		if p.Levels > level {
			return p.Leftmost[level], nil
		}
		t.stats.levelWaits.Add(1)
		if spin < 100 {
			runtime.Gosched()
		} else {
			time.Sleep(100 * time.Microsecond)
		}
	}
}
