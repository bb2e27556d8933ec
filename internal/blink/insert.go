package blink

import (
	"fmt"

	"blinktree/internal/base"
	"blinktree/internal/locks"
	"blinktree/internal/node"
)

// pending is the pair an insertion is currently trying to place: the
// record pair at the leaf level (condStep), then (separator, new-node
// pointer) pairs as splits ripple upward (Fig. 6, insertStep).
type pending struct {
	key   base.Key
	val   base.Value  // leaf level only
	child base.PageID // upper levels only
	held  base.PageID // Lehman–Yao only: the split node still locked
	level int
}

// descendRetry performs movedown-and-stack, retrying on wrong-node
// restarts (which at this stage cost only the walk; no locks are held).
func (t *Tree) descendRetry(k base.Key, stack *[]base.PageID) (base.PageID, *node.Node, error) {
	for attempt := 0; attempt < maxRestarts; attempt++ {
		*stack = (*stack)[:0]
		id, n, err := t.descend(k, stack)
		if err == nil {
			return id, n, nil
		}
		if !isRestart(err) {
			return base.NilPage, nil, err
		}
		t.stats.restarts.Add(1)
	}
	return base.NilPage, nil, ErrLivelock
}

// insertStep makes one attempt to place the separator pend at node cur
// on pend.level ≥ 1; the leaf level is condStep's. It returns done=true
// when the insertion completed, or the next node id to try at the same
// level, or errRestart when the search for the right node must be
// redone.
//
// Locking follows Fig. 5 exactly: the candidate is locked and re-read
// (it may have been split between the descent's read and the lock);
// when the key turns out to lie beyond the high value, the lock is
// dropped and the link chain is chased WITHOUT locks (procedure
// moveright) until the next candidate.
//
// Under Lehman–Yao the node split one level down is still locked
// (pend.held): the candidate is then reached by lock coupling — lock
// the next node, then unlock this one, three locks at the peak — and
// the child is released only once the parent is held.
func (t *Tree) insertStep(h *locks.Holder, pend *pending, cur base.PageID, stack *[]base.PageID) (done bool, next base.PageID, err error) {
	h.Lock(cur)
	n, err := t.store.Get(cur)
	if pend.held != base.NilPage {
		for err == nil && !n.Deleted && n.HighLess(pend.key) {
			t.stats.linkHops.Add(1)
			if n.Link == base.NilPage {
				err = base.ErrCorrupt
				break
			}
			h.Lock(n.Link)
			h.Unlock(cur)
			cur = n.Link
			n, err = t.store.Get(cur)
		}
		h.Unlock(pend.held)
		pend.held = base.NilPage
	}
	if err != nil {
		h.Unlock(cur)
		return false, base.NilPage, err
	}
	switch {
	case n.Deleted:
		h.Unlock(cur)
		if n.OutLink != base.NilPage {
			t.stats.outlinkHops.Add(1)
			return false, n.OutLink, nil
		}
		return false, base.NilPage, errRestart{}
	case !n.Low.Less(pend.key):
		h.Unlock(cur)
		return false, base.NilPage, errRestart{}
	case n.HighLess(pend.key):
		h.Unlock(cur)
		next, err := t.chaseRight(n, pend.key)
		return false, next, err
	}

	if n.Pairs() < t.capacity() {
		err := t.insertIntoSafe(n, pend)
		h.Unlock(cur)
		return err == nil, base.NilPage, err
	}
	if n.Root {
		err := t.insertIntoUnsafeRoot(n, pend)
		h.Unlock(cur)
		return err == nil, base.NilPage, err
	}
	nextID, err := t.insertIntoUnsafe(n, pend, stack)
	if err != nil {
		h.Unlock(cur)
		return false, base.NilPage, err
	}
	t.releaseSplit(h, pend, cur)
	return false, nextID, nil
}

// releaseSplit gives up the lock on node id, which this insertion has
// just split and whose separator pend now carries one level up. Sagiv's
// insertion unlocks it before taking any other lock (§3.1); Lehman–Yao's
// keeps it until insertStep holds the parent.
func (t *Tree) releaseSplit(h *locks.Holder, pend *pending, id base.PageID) {
	if t.coupled {
		pend.held = id
		return
	}
	h.Unlock(id)
}

// chaseRight performs the unlocked moveright of Fig. 4 starting from a
// snapshot whose high value is below k: it follows links until reaching
// the node whose range may admit k and returns its id for the caller to
// lock and re-check.
func (t *Tree) chaseRight(n *node.Node, k base.Key) (base.PageID, error) {
	for n.HighLess(k) {
		t.stats.linkHops.Add(1)
		next := n.Link
		if next == base.NilPage {
			return base.NilPage, base.ErrCorrupt
		}
		var err error
		if n, err = t.step(next, k); err != nil {
			return base.NilPage, err
		}
	}
	return n.ID, nil
}

// grown returns n plus the pending pair (on a clone).
func (t *Tree) grown(n *node.Node, pend *pending) (*node.Node, error) {
	if pend.level == 0 {
		return n.InsertLeafPair(pend.key, pend.val), nil
	}
	return n.InsertSeparator(pend.key, pend.child)
}

// insertIntoSafe (Fig. 6): the node has room; add the pair and rewrite.
func (t *Tree) insertIntoSafe(n *node.Node, pend *pending) error {
	n2, err := t.grown(n, pend)
	if err != nil {
		return err
	}
	return t.store.Put(n2)
}

// insertIntoUnsafe (Fig. 6): split, writing the new right node B before
// rewriting A (Fig. 3) so B becomes reachable exactly when A's new link
// is published. Afterwards the caller releases the lock (releaseSplit)
// and the separator becomes the pending pair one level up.
// It returns the node at which to try the next level: the popped stack
// entry, or the leftmost node of that level when the stack is empty
// because the tree grew while we ran (§3.2).
func (t *Tree) insertIntoUnsafe(n *node.Node, pend *pending, stack *[]base.PageID) (base.PageID, error) {
	over, err := t.grown(n, pend)
	if err != nil {
		return base.NilPage, err
	}
	newID, err := t.store.Allocate()
	if err != nil {
		return base.NilPage, err
	}
	left, right, sep := over.Split(newID)
	if err := t.store.Put(right); err != nil {
		return base.NilPage, err
	}
	if err := t.store.Put(left); err != nil {
		return base.NilPage, err
	}
	t.stats.splits.Add(1)

	pend.key = sep
	pend.val = 0
	pend.child = newID
	pend.level++

	if n := len(*stack); n > 0 {
		id := (*stack)[n-1]
		*stack = (*stack)[:n-1]
		return id, nil
	}
	return t.waitForLevel(pend.level)
}

// insertIntoUnsafeRoot (Fig. 6): split the root and create a new one.
// The lock on the old root is held until the prime block is rewritten,
// which is what prevents two roots from being created simultaneously
// (§3.3); the prime block itself needs no lock for the same reason.
func (t *Tree) insertIntoUnsafeRoot(n *node.Node, pend *pending) error {
	over, err := t.grown(n, pend)
	if err != nil {
		return err
	}
	newID, err := t.store.Allocate()
	if err != nil {
		return err
	}
	left, right, sep := over.Split(newID)
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
	root := node.New(false, 1)
	root.ID, root.Root = rootID, true
	root.Low, root.High = base.NegInfBound(), base.PosInfBound()
	root.Keys[0] = sep
	root.Children[0], root.Children[1] = n.ID, newID
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
	t.stats.splits.Add(1)
	t.stats.rootSplits.Add(1)
	return nil
}

// String renders a one-line summary.
func (t *Tree) String() string {
	return fmt.Sprintf("blink.Tree{k=%d, len=%d, height=%d}", t.k, t.Len(), t.Height())
}
