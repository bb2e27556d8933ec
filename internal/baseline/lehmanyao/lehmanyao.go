// Package lehmanyao reimplements the comparator the paper improves on:
// the original Lehman–Yao B-link algorithm (reference [8]). Searches
// are lock-free and identical to the Sagiv tree's; the difference is
// the insertion's upward phase. Lehman–Yao forbids one updater from
// overtaking another on the way up: after splitting a node, the
// inserter keeps the child locked while it locks (and moves right at)
// the parent, holding up to three locks simultaneously. Sagiv's
// observation is that this coupling is unnecessary — asserted directly
// by TestLockFootprintSeparation.
//
// Deletions follow the original paper too: remove the pair from the
// leaf and do nothing else, even if the leaf becomes sparse (the space
// leak that motivates Sagiv's compression).
package lehmanyao

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"blinktree/internal/base"
	"blinktree/internal/locks"
	"blinktree/internal/node"
)

// DefaultMinPairs matches the Sagiv tree's default k.
const DefaultMinPairs = 16

// Config parameterizes a Tree.
type Config struct {
	// Store is the node store; nil means a fresh in-memory store.
	Store node.Store
	// Locks is the lock table; nil means a fresh table.
	Locks locks.Locker
	// MinPairs is k: nodes hold at most 2k pairs.
	MinPairs int
}

// Tree is a Lehman–Yao B-link tree, safe for concurrent use.
type Tree struct {
	store node.Store
	lt    locks.Locker
	k     int

	length atomic.Int64
	closed atomic.Bool

	searches, inserts, deletes atomic.Uint64
	conds                      atomic.Uint64 // conditional writes
	splits, linkHops           atomic.Uint64
	insertFP, deleteFP         locks.FootprintStats
}

// New creates a Tree, bootstrapping an empty root leaf when the store
// is fresh.
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
		return nil, fmt.Errorf("lehmanyao: MinPairs %d < 2", cfg.MinPairs)
	}
	t := &Tree{store: cfg.Store, lt: cfg.Locks, k: cfg.MinPairs}
	p, err := t.store.ReadPrime()
	if err != nil {
		return nil, err
	}
	if p.Levels == 0 {
		id, err := t.store.Allocate()
		if err != nil {
			return nil, err
		}
		root := &node.Node{
			ID: id, Leaf: true, Root: true,
			Low: base.NegInfBound(), High: base.PosInfBound(),
		}
		if err := t.store.Put(root); err != nil {
			return nil, err
		}
		if err := t.store.WritePrime(node.Prime{Root: id, Levels: 1, Leftmost: []base.PageID{id}}); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (t *Tree) capacity() int { return 2 * t.k }

// MinPairs returns k.
func (t *Tree) MinPairs() int { return t.k }

// Len returns the number of stored pairs.
func (t *Tree) Len() int { return int(t.length.Load()) }

// Close marks the tree closed.
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

// descend walks to the leaf level, optionally stacking descent nodes.
// Without compression no wrong-node condition can arise, so there is no
// restart logic — only link chases.
func (t *Tree) descend(k base.Key, stack *[]base.PageID) (*node.Node, error) {
	p, err := t.store.ReadPrime()
	if err != nil {
		return nil, err
	}
	n, err := t.store.Get(p.Root)
	if err != nil {
		return nil, err
	}
	for !n.Leaf {
		next, isLink := n.Next(k)
		if !isLink && stack != nil {
			*stack = append(*stack, n.ID)
		}
		if isLink {
			t.linkHops.Add(1)
		}
		if n, err = t.store.Get(next); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// moveright follows links to the node admitting k (unlocked reads).
func (t *Tree) moveright(n *node.Node, k base.Key) (*node.Node, error) {
	for n.HighLess(k) {
		t.linkHops.Add(1)
		next := n.Link
		if next == base.NilPage {
			return nil, base.ErrCorrupt
		}
		var err error
		if n, err = t.store.Get(next); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// Search returns the value under k; identical to the Sagiv search.
func (t *Tree) Search(k base.Key) (base.Value, error) {
	if err := t.checkOpen(); err != nil {
		return 0, err
	}
	t.searches.Add(1)
	n, err := t.descend(k, nil)
	if err != nil {
		return 0, err
	}
	if n, err = t.moveright(n, k); err != nil {
		return 0, err
	}
	if v, ok := n.LeafFind(k); ok {
		return v, nil
	}
	return 0, base.ErrNotFound
}

// lockedMoveright is the Lehman–Yao "move.right": while holding the
// current node's lock, lock the right neighbour before releasing the
// current lock, so that the chain position is never given up (two locks
// held during the hop).
func (t *Tree) lockedMoveright(h *locks.Holder, n *node.Node, k base.Key) (*node.Node, error) {
	for n.HighLess(k) {
		t.linkHops.Add(1)
		next := n.Link
		if next == base.NilPage {
			h.UnlockAll()
			return nil, base.ErrCorrupt
		}
		h.Lock(next)
		h.Unlock(n.ID)
		var err error
		if n, err = t.store.Get(next); err != nil {
			h.UnlockAll()
			return nil, err
		}
	}
	return n, nil
}

// lockedLeaf descends to k's leaf, locks it, re-reads it and moves
// right under lock coupling, returning the locked current snapshot.
func (t *Tree) lockedLeaf(h *locks.Holder, k base.Key, stack *[]base.PageID) (*node.Node, error) {
	n, err := t.descend(k, stack)
	if err != nil {
		return nil, err
	}
	h.Lock(n.ID)
	if n, err = t.store.Get(n.ID); err != nil {
		return nil, err
	}
	return t.lockedMoveright(h, n, k)
}

// Insert stores v under k using the original Lehman–Yao protocol: on a
// split, the child's lock is retained while the parent is locked and
// moved-right, holding 2–3 locks simultaneously during the upward pass.
func (t *Tree) Insert(k base.Key, v base.Value) error {
	if err := t.checkOpen(); err != nil {
		return err
	}
	t.inserts.Add(1)
	h := locks.NewHolder(t.lt)
	defer func() {
		h.UnlockAll()
		t.insertFP.Record(h)
	}()

	var stack []base.PageID
	n, err := t.lockedLeaf(h, k, &stack)
	if err != nil {
		return err
	}
	if _, dup := n.LeafFind(k); dup {
		h.Unlock(n.ID)
		return base.ErrDuplicate
	}
	return t.placeFrom(h, n, k, v, stack)
}

// placeFrom performs the upward placement half of an insertion,
// starting from the locked leaf n with the key known to be absent.
func (t *Tree) placeFrom(h *locks.Holder, n *node.Node, k base.Key, v base.Value, stack []base.PageID) error {
	var err error
	pendKey, pendVal, pendChild := k, v, base.NilPage
	level := 0
	for {
		if n.Pairs() < t.capacity() {
			// Safe: rewrite and we are done.
			var n2 *node.Node
			if level == 0 {
				n2 = n.InsertLeafPair(pendKey, pendVal)
			} else {
				if n2, err = n.InsertSeparator(pendKey, pendChild); err != nil {
					return err
				}
			}
			if err := t.store.Put(n2); err != nil {
				return err
			}
			h.Unlock(n.ID)
			if level == 0 {
				t.length.Add(1) // only leaf-level insertions add a pair
			}
			return nil
		}

		// Unsafe: split.
		var grown *node.Node
		if level == 0 {
			grown = n.InsertLeafPair(pendKey, pendVal)
		} else {
			if grown, err = n.InsertSeparator(pendKey, pendChild); err != nil {
				return err
			}
		}
		newID, err := t.store.Allocate()
		if err != nil {
			return err
		}
		left, right, sep := grown.Split(newID)
		if n.Root {
			// Root split: same as the Sagiv tree (the special case [8]
			// leaves implicit, §3.2).
			if err := t.splitRoot(n, left, right, sep, newID); err != nil {
				return err
			}
			h.Unlock(n.ID)
			if level == 0 {
				t.length.Add(1)
			}
			return nil
		}
		if err := t.store.Put(right); err != nil {
			return err
		}
		if err := t.store.Put(left); err != nil {
			return err
		}
		t.splits.Add(1)
		if level == 0 {
			t.length.Add(1)
		}

		// THE LEHMAN–YAO DIFFERENCE: keep n locked while acquiring the
		// parent, so no other updater can overtake us on the way up.
		pendKey, pendVal, pendChild = sep, 0, newID
		level++
		var parentID base.PageID
		if len(stack) > 0 {
			parentID = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		} else {
			if parentID, err = t.waitForLevel(level); err != nil {
				return err
			}
		}
		h.Lock(parentID) // two locks held
		parent, err := t.store.Get(parentID)
		if err != nil {
			return err
		}
		// Move right at the parent while still holding the child: the
		// peak of three simultaneous locks.
		parent, err = t.lockedMoverightKeepChild(h, parent, pendKey, left.ID)
		if err != nil {
			return err
		}
		h.Unlock(left.ID) // child released only now
		n = parent
	}
}

// lockedMoverightKeepChild moves right at the parent level with lock
// coupling while the child childID stays locked throughout.
func (t *Tree) lockedMoverightKeepChild(h *locks.Holder, n *node.Node, k base.Key, childID base.PageID) (*node.Node, error) {
	for n.HighLess(k) {
		t.linkHops.Add(1)
		next := n.Link
		if next == base.NilPage {
			h.UnlockAll()
			return nil, base.ErrCorrupt
		}
		h.Lock(next) // child + current + next = 3 locks
		h.Unlock(n.ID)
		var err error
		if n, err = t.store.Get(next); err != nil {
			h.UnlockAll()
			return nil, err
		}
	}
	return n, nil
}

func (t *Tree) splitRoot(n *node.Node, left, right *node.Node, sep base.Key, newID base.PageID) error {
	rootID, err := t.store.Allocate()
	if err != nil {
		return err
	}
	if err := t.store.Put(right); err != nil {
		return err
	}
	if err := t.store.Put(left); err != nil {
		return err
	}
	root := &node.Node{
		ID: rootID, Root: true,
		Low: base.NegInfBound(), High: base.PosInfBound(),
		Keys:     []base.Key{sep},
		Children: []base.PageID{n.ID, newID},
	}
	if err := t.store.Put(root); err != nil {
		return err
	}
	p, err := t.store.ReadPrime()
	if err != nil {
		return err
	}
	p = p.Clone()
	p.Root = rootID
	p.Levels++
	p.Leftmost = append(p.Leftmost, rootID)
	if err := t.store.WritePrime(p); err != nil {
		return err
	}
	t.splits.Add(1)
	return nil
}

func (t *Tree) waitForLevel(level int) (base.PageID, error) {
	for spin := 0; ; spin++ {
		p, err := t.store.ReadPrime()
		if err != nil {
			return base.NilPage, err
		}
		if p.Levels > level {
			return p.Leftmost[level], nil
		}
		if spin < 100 {
			runtime.Gosched()
		} else {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// Delete removes k with the trivial [8] deletion: rewrite the leaf, no
// rebalancing ever.
func (t *Tree) Delete(k base.Key) error {
	if err := t.checkOpen(); err != nil {
		return err
	}
	t.deletes.Add(1)
	h := locks.NewHolder(t.lt)
	defer func() {
		h.UnlockAll()
		t.deleteFP.Record(h)
	}()

	n, err := t.lockedLeaf(h, k, nil)
	if err != nil {
		return err
	}
	n2 := n.DeleteLeafPair(k)
	if n2 == nil {
		h.Unlock(n.ID)
		return base.ErrNotFound
	}
	if err := t.store.Put(n2); err != nil {
		return err
	}
	h.Unlock(n.ID)
	t.length.Add(-1)
	return nil
}

// Upsert stores v under k, returning the previous value and whether
// one existed. The decision happens under the held leaf lock; an
// absent key continues as an ordinary Lehman–Yao insertion.
func (t *Tree) Upsert(k base.Key, v base.Value) (base.Value, bool, error) {
	if err := t.checkOpen(); err != nil {
		return 0, false, err
	}
	t.conds.Add(1)
	h := locks.NewHolder(t.lt)
	defer func() {
		h.UnlockAll()
		t.insertFP.Record(h)
	}()
	var stack []base.PageID
	n, err := t.lockedLeaf(h, k, &stack)
	if err != nil {
		return 0, false, err
	}
	if old, ok := n.LeafFind(k); ok {
		if err := t.store.Put(n.SetLeafValue(k, v)); err != nil {
			return 0, false, err
		}
		h.Unlock(n.ID)
		return old, true, nil
	}
	return 0, false, t.placeFrom(h, n, k, v, stack)
}

// GetOrInsert returns the value under k, inserting v first when absent.
func (t *Tree) GetOrInsert(k base.Key, v base.Value) (base.Value, bool, error) {
	if err := t.checkOpen(); err != nil {
		return 0, false, err
	}
	t.conds.Add(1)
	h := locks.NewHolder(t.lt)
	defer func() {
		h.UnlockAll()
		t.insertFP.Record(h)
	}()
	var stack []base.PageID
	n, err := t.lockedLeaf(h, k, &stack)
	if err != nil {
		return 0, false, err
	}
	if old, ok := n.LeafFind(k); ok {
		h.Unlock(n.ID)
		return old, true, nil
	}
	return v, false, t.placeFrom(h, n, k, v, stack)
}

// Update replaces the value under k with fn(current), or ErrNotFound.
func (t *Tree) Update(k base.Key, fn func(base.Value) base.Value) (base.Value, error) {
	if err := t.checkOpen(); err != nil {
		return 0, err
	}
	t.conds.Add(1)
	h := locks.NewHolder(t.lt)
	defer func() {
		h.UnlockAll()
		t.deleteFP.Record(h)
	}()
	n, err := t.lockedLeaf(h, k, nil)
	if err != nil {
		return 0, err
	}
	old, ok := n.LeafFind(k)
	if !ok {
		h.Unlock(n.ID)
		return 0, base.ErrNotFound
	}
	v := fn(old)
	if err := t.store.Put(n.SetLeafValue(k, v)); err != nil {
		return 0, err
	}
	h.Unlock(n.ID)
	return v, nil
}

// CompareAndSwap replaces the value under k with new when it equals
// old. A missing key is ErrNotFound; a mismatch is (false, nil).
func (t *Tree) CompareAndSwap(k base.Key, old, new base.Value) (bool, error) {
	if err := t.checkOpen(); err != nil {
		return false, err
	}
	t.conds.Add(1)
	h := locks.NewHolder(t.lt)
	defer func() {
		h.UnlockAll()
		t.deleteFP.Record(h)
	}()
	n, err := t.lockedLeaf(h, k, nil)
	if err != nil {
		return false, err
	}
	cur, ok := n.LeafFind(k)
	if !ok {
		h.Unlock(n.ID)
		return false, base.ErrNotFound
	}
	if cur != old {
		h.Unlock(n.ID)
		return false, nil
	}
	if err := t.store.Put(n.SetLeafValue(k, new)); err != nil {
		return false, err
	}
	h.Unlock(n.ID)
	return true, nil
}

// CompareAndDelete removes k when its value equals old, with the same
// convention as CompareAndSwap.
func (t *Tree) CompareAndDelete(k base.Key, old base.Value) (bool, error) {
	if err := t.checkOpen(); err != nil {
		return false, err
	}
	t.conds.Add(1)
	h := locks.NewHolder(t.lt)
	defer func() {
		h.UnlockAll()
		t.deleteFP.Record(h)
	}()
	n, err := t.lockedLeaf(h, k, nil)
	if err != nil {
		return false, err
	}
	cur, ok := n.LeafFind(k)
	if !ok {
		h.Unlock(n.ID)
		return false, base.ErrNotFound
	}
	if cur != old {
		h.Unlock(n.ID)
		return false, nil
	}
	if err := t.store.Put(n.DeleteLeafPair(k)); err != nil {
		return false, err
	}
	h.Unlock(n.ID)
	t.length.Add(-1)
	return true, nil
}

// Range scans [lo, hi] through the leaf chain.
func (t *Tree) Range(lo, hi base.Key, fn func(base.Key, base.Value) bool) error {
	if err := t.checkOpen(); err != nil {
		return err
	}
	if hi < lo {
		return nil
	}
	n, err := t.descend(lo, nil)
	if err != nil {
		return err
	}
	if n, err = t.moveright(n, lo); err != nil {
		return err
	}
	cursor := lo
	for {
		for i, k := range n.Keys {
			if k < cursor || k > hi {
				if k > hi {
					return nil
				}
				continue
			}
			if !fn(k, n.Vals[i]) {
				return nil
			}
		}
		if n.High.Kind == base.PosInf || n.High.K >= hi || n.Link == base.NilPage {
			return nil
		}
		cursor = n.High.K + 1
		if n, err = t.store.Get(n.Link); err != nil {
			return err
		}
	}
}

// LYStats is a snapshot of operation counters.
type LYStats struct {
	Searches, Inserts, Deletes uint64
	// Conds counts the conditional writes (Upsert, GetOrInsert, Update,
	// CompareAndSwap, CompareAndDelete).
	Conds                    uint64
	Splits, LinkHops         uint64
	InsertLocks, DeleteLocks locks.Footprint
}

// Stats returns the counters.
func (t *Tree) Stats() LYStats {
	return LYStats{
		Searches: t.searches.Load(), Inserts: t.inserts.Load(), Deletes: t.deletes.Load(),
		Conds:  t.conds.Load(),
		Splits: t.splits.Load(), LinkHops: t.linkHops.Load(),
		InsertLocks: t.insertFP.Snapshot(), DeleteLocks: t.deleteFP.Snapshot(),
	}
}

// Check validates structure via a borrowed Sagiv-style walk: key order,
// bound tiling and parent/child agreement.
func (t *Tree) Check() error {
	p, err := t.store.ReadPrime()
	if err != nil {
		return err
	}
	var prevChain []base.PageID
	for level := p.Levels - 1; level >= 0; level-- {
		var chain []base.PageID
		id := p.Leftmost[level]
		prevHigh := base.NegInfBound()
		for id != base.NilPage {
			n, err := t.store.Get(id)
			if err != nil {
				return err
			}
			if err := n.Validate(); err != nil {
				return err
			}
			if !n.Low.Equal(prevHigh) {
				return fmt.Errorf("%w: node %d low %v != prev high %v", base.ErrCorrupt, id, n.Low, prevHigh)
			}
			chain = append(chain, id)
			prevHigh = n.High
			id = n.Link
		}
		if prevHigh.Kind != base.PosInf {
			return fmt.Errorf("%w: level %d ends at %v", base.ErrCorrupt, level, prevHigh)
		}
		if prevChain != nil {
			var kids []base.PageID
			for _, pid := range prevChain {
				f, err := t.store.Get(pid)
				if err != nil {
					return err
				}
				kids = append(kids, f.Children...)
			}
			if len(kids) != len(chain) {
				return fmt.Errorf("%w: level %d has %d nodes but parents list %d", base.ErrCorrupt, level, len(chain), len(kids))
			}
			for i := range kids {
				if kids[i] != chain[i] {
					return fmt.Errorf("%w: child order mismatch at %d", base.ErrCorrupt, i)
				}
			}
		}
		prevChain = chain
	}
	return nil
}
