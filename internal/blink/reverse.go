package blink

import (
	"blinktree/internal/base"
	"blinktree/internal/node"
)

// ReverseCursor iterates the tree in descending key order. A B-link
// tree has no left links — the right links exist precisely because
// splits move data rightward (§2.1) — so a backwards walk cannot chase
// a chain. Instead the cursor consumes each leaf snapshot from its top
// key down and then re-descends for the predecessor leaf: every leaf's
// low value is, by the level's tiling invariant, the inclusive upper
// bound of the leaf to its left, so descending for it lands exactly one
// leaf back. That costs one O(height) descent per leaf hop instead of
// one link read, which is the honest price of reverse order on this
// structure.
//
// Like the forward Cursor it holds no locks and reads leaf snapshots:
// keys come back strictly descending, each at most once, and concurrent
// mutations may or may not be observed. Not safe for concurrent use by
// multiple goroutines.
type ReverseCursor struct {
	t    *Tree
	leaf *node.Node
	idx  int
	// next is the largest key not yet returned; it makes predecessor
	// hops and restarts idempotent.
	next base.Key
	done bool
	err  error
}

// NewReverseCursor returns a cursor positioned before the largest key
// ≤ start.
func (t *Tree) NewReverseCursor(start base.Key) *ReverseCursor {
	return &ReverseCursor{t: t, next: start}
}

// Err returns the error that terminated iteration, if any.
func (c *ReverseCursor) Err() error { return c.err }

// Next advances to the preceding pair, returning false at the start of
// the tree or on error (check Err).
func (c *ReverseCursor) Next() (base.Key, base.Value, bool) {
	if c.done || c.err != nil {
		return 0, 0, false
	}
	for attempt := 0; attempt < maxRestarts; attempt++ {
		k, v, ok, err := c.step()
		if err == nil {
			if !ok {
				c.done = true
				return 0, 0, false
			}
			return k, v, true
		}
		if !isRestart(err) {
			c.err = err
			return 0, 0, false
		}
		c.t.stats.restarts.Add(1)
		c.leaf = nil // re-seek from the root
	}
	c.err = ErrLivelock
	return 0, 0, false
}

// step yields the largest pair ≤ c.next, seeking when unpositioned.
func (c *ReverseCursor) step() (base.Key, base.Value, bool, error) {
	if c.leaf == nil {
		if err := c.seek(); err != nil {
			return 0, 0, false, err
		}
	}
	for {
		for c.idx >= 0 {
			i := c.idx
			c.idx--
			if i >= len(c.leaf.Keys) {
				continue // leaf snapshot shorter than expected
			}
			k := c.leaf.Keys[i]
			if k > c.next {
				continue
			}
			v := c.leaf.Val(i)
			if k == 0 {
				c.done = true // minimum key: nothing can precede it
			} else {
				c.next = k - 1
			}
			return k, v, true, nil
		}
		// Leaf exhausted. Its low value is the inclusive top of the
		// predecessor leaf; clamping next to it also guarantees pairs
		// that later move right cannot be replayed.
		if c.leaf.Low.Kind != base.Finite {
			return 0, 0, false, nil // −∞: this was the leftmost leaf
		}
		if c.leaf.Low.K < c.next {
			c.next = c.leaf.Low.K
		}
		if err := c.seek(); err != nil {
			return 0, 0, false, err
		}
	}
}

// seek positions the cursor at the leaf covering c.next, scanning from
// its top key.
func (c *ReverseCursor) seek() error {
	id, n, err := c.t.descend(c.next, nil)
	if err != nil {
		return err
	}
	if _, n, err = c.t.moveright(id, n, c.next); err != nil {
		return err
	}
	c.leaf = n
	c.idx = len(n.Keys) - 1
	return nil
}

// Seek repositions the cursor before the largest key ≤ k. Seeking in
// either direction is allowed.
func (c *ReverseCursor) Seek(k base.Key) {
	c.next = k
	c.leaf = nil
	c.idx = 0
	c.done = false
	c.err = nil
}
