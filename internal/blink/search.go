package blink

import (
	"blinktree/internal/base"
	"blinktree/internal/node"
)

// descentStackCap sizes the stack-allocated backing array for the
// movedown-and-stack traversal record (Fig. 5). A 16-level tree holds
// ≥ 2^16 nodes even at minimum fanout, so the array covers every
// realistic height and the per-operation stack never reaches the heap;
// a taller tree merely makes append spill over, which stays correct.
const descentStackCap = 16

// errRestart is the internal signal that a process reached a wrong node
// (§5.2) and must restart its search.
type errRestart struct{}

func (errRestart) Error() string { return "blink: wrong node, restart" }

// isRestart reports whether err is the restart signal.
func isRestart(err error) bool {
	_, ok := err.(errRestart)
	return ok
}

// step resolves one read of a node during a traversal looking for key k,
// applying the wrong-node rules of §5.2:
//
//   - a deleted node forwards through its outlink (case 1, the [4]
//     pointer-to-survivor technique), or demands a restart if the whole
//     level died (nil outlink);
//   - a node whose low value is ≥ k demands a restart (case 2: the data
//     moved to the left, links cannot recover it).
//
// It returns the node snapshot when it is usable.
func (t *Tree) step(id base.PageID, k base.Key) (*node.Node, error) {
	for {
		n, err := t.store.Get(id)
		if err != nil {
			return nil, err
		}
		if n.Deleted {
			if n.OutLink == base.NilPage {
				return nil, errRestart{}
			}
			t.stats.outlinkHops.Add(1)
			id = n.OutLink
			continue
		}
		if !n.Low.Less(k) {
			return nil, errRestart{}
		}
		return n, nil
	}
}

// descend walks from the root to the leaf level looking for k — the
// paper's movedown (Fig. 4) — following child pointers and links. When
// stack is non-nil it records, per nonleaf level, the node from which
// the traversal descended (movedown-and-stack, Fig. 5). The returned
// id/node is the first leaf reached; the caller continues with
// moveright if needed. from, when non-zero, resumes the walk at that
// node on the given level instead of the root (backtracking restarts).
func (t *Tree) descend(k base.Key, stack *[]base.PageID) (base.PageID, *node.Node, error) {
	p, err := t.store.ReadPrime()
	if err != nil {
		return base.NilPage, nil, err
	}
	if p.Levels == 0 {
		return base.NilPage, nil, base.ErrCorrupt
	}
	n, err := t.step(p.Root, k)
	if err != nil {
		return base.NilPage, nil, err
	}
	for !n.Leaf {
		next, isLink := n.Next(k)
		if !isLink && stack != nil {
			*stack = append(*stack, n.ID)
		}
		if isLink {
			t.stats.linkHops.Add(1)
		}
		// step resolves outlinks, so resync the id from the snapshot.
		if n, err = t.step(next, k); err != nil {
			return base.NilPage, nil, err
		}
	}
	return n.ID, n, nil
}

// moveright walks the leaf chain until it reaches the leaf whose range
// admits k (Fig. 4). id/n is the starting leaf snapshot.
func (t *Tree) moveright(id base.PageID, n *node.Node, k base.Key) (base.PageID, *node.Node, error) {
	for n.HighLess(k) {
		t.stats.linkHops.Add(1)
		id = n.Link
		if id == base.NilPage {
			// The rightmost node has high = +∞, so a nil link here
			// means a torn structure.
			return base.NilPage, nil, base.ErrCorrupt
		}
		var err error
		if n, err = t.step(id, k); err != nil {
			return base.NilPage, nil, err
		}
	}
	return n.ID, n, nil
}

// Search returns the value stored under k (Fig. 4). Searches take no
// locks; they restart if compression moved the key out from under them.
func (t *Tree) Search(k base.Key) (base.Value, error) {
	if err := t.checkOpen(); err != nil {
		return 0, err
	}
	sc, g := t.begin()
	defer t.end(sc, g)
	t.stats.of(sc).searches.Add(1)

	for attempt := 0; attempt < maxRestarts; attempt++ {
		v, err := t.searchOnce(k, sc)
		if err == nil {
			return v, nil
		}
		if !isRestart(err) {
			return 0, err
		}
		t.stats.restarts.Add(1)
	}
	return 0, ErrLivelock
}

func (t *Tree) searchOnce(k base.Key, sc *opScratch) (base.Value, error) {
	var stackp *[]base.PageID
	if t.pol == RestartBacktrack {
		sc.stack = sc.stack[:0]
		stackp = &sc.stack
	}
	id, n, err := t.descend(k, stackp)
	if err != nil {
		if isRestart(err) && t.pol == RestartBacktrack {
			return t.searchBacktrack(k, sc.stack)
		}
		return 0, err
	}
	if _, n, err = t.moveright(id, n, k); err != nil {
		if isRestart(err) && t.pol == RestartBacktrack {
			return t.searchBacktrack(k, sc.stack)
		}
		return 0, err
	}
	v, ok := n.LeafFind(k)
	if !ok {
		return 0, base.ErrNotFound
	}
	return v, nil
}

// searchBacktrack resumes a restarted search from the deepest stacked
// node that still admits k (§5.2: "we may try at first to backtrack to
// the previous node visited"). If no stacked node works it signals a
// full restart.
func (t *Tree) searchBacktrack(k base.Key, stack []base.PageID) (base.Value, error) {
	for i := len(stack) - 1; i >= 0; i-- {
		t.stats.backtracks.Add(1)
		n, err := t.store.Get(stack[i])
		if err != nil {
			return 0, err
		}
		if n.Deleted || !n.Low.Less(k) || n.Leaf {
			continue // unusable resume point; go higher
		}
		v, err := t.searchFrom(stack[i], n, k)
		if err == nil || !isRestart(err) {
			return v, err
		}
	}
	return 0, errRestart{}
}

// searchFrom completes a search for k starting at an internal node.
func (t *Tree) searchFrom(id base.PageID, n *node.Node, k base.Key) (base.Value, error) {
	for !n.Leaf {
		next, isLink := n.Next(k)
		if isLink {
			t.stats.linkHops.Add(1)
		}
		var err error
		if n, err = t.step(next, k); err != nil {
			return 0, err
		}
	}
	if _, n2, err := t.moveright(n.ID, n, k); err != nil {
		return 0, err
	} else if v, ok := n2.LeafFind(k); ok {
		return v, nil
	}
	return 0, base.ErrNotFound
}

// descendToLevel walks from the root down to the given level (leaves
// are level 0) and returns the id of the node there whose range may
// admit k. It is the restart path for insertions that must re-find the
// node at level j where a pending separator belongs (§5.2).
func (t *Tree) descendToLevel(k base.Key, level int) (base.PageID, error) {
	leftmost, err := t.waitForLevel(level)
	if err != nil {
		return base.NilPage, err
	}
	p, err := t.store.ReadPrime()
	if err != nil {
		return base.NilPage, err
	}
	if p.Levels <= level {
		// The tree shrank between the two prime reads; the leftmost
		// node of the target level (captured while it existed) is the
		// only safe entry point.
		return leftmost, nil
	}
	if p.Levels-1 == level {
		return p.Root, nil
	}
	lvl := p.Levels - 1
	n, err := t.step(p.Root, k)
	if err != nil {
		if isRestart(err) {
			return leftmost, nil
		}
		return base.NilPage, err
	}
	for lvl > level {
		if n.Leaf {
			return base.NilPage, base.ErrCorrupt
		}
		next, isLink := n.Next(k)
		if isLink {
			t.stats.linkHops.Add(1)
		} else {
			lvl--
		}
		if n, err = t.step(next, k); err != nil {
			if isRestart(err) {
				// Fall back to the leftmost node of the target level:
				// chasing right from there always terminates.
				t.stats.restarts.Add(1)
				return leftmost, nil
			}
			return base.NilPage, err
		}
	}
	return n.ID, nil
}
