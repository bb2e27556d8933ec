package blink

import (
	"blinktree/internal/base"
	"blinktree/internal/node"
)

// Cursor iterates the tree in ascending key order by walking the leaf
// chain — the sequential-access pattern the right links were originally
// introduced for (§2.1 footnote 3). A Cursor holds no locks; it reads
// leaf snapshots and is therefore safe to keep open indefinitely while
// the tree mutates, with the same monotonic semantics as Range: keys
// come back strictly ascending, each at-most-once, and concurrent
// insertions or deletions may or may not be observed.
//
// A Cursor is not safe for concurrent use by multiple goroutines.
type Cursor struct {
	t    *Tree
	leaf *node.Node
	idx  int
	// next is the smallest key not yet returned; it makes sibling hops
	// and restarts idempotent.
	next    base.Key
	started bool
	done    bool
	err     error
}

// NewCursor returns a cursor positioned before the smallest key ≥ start.
func (t *Tree) NewCursor(start base.Key) *Cursor {
	return &Cursor{t: t, next: start}
}

// Err returns the error that terminated iteration, if any.
func (c *Cursor) Err() error { return c.err }

// Next advances to the following pair, returning false at the end of
// the tree or on error (check Err).
func (c *Cursor) Next() (base.Key, base.Value, bool) {
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

// step yields the next pair ≥ c.next, seeking when unpositioned.
func (c *Cursor) step() (base.Key, base.Value, bool, error) {
	if c.leaf == nil {
		if err := c.seek(); err != nil {
			return 0, 0, false, err
		}
	}
	for {
		for c.idx < len(c.leaf.Keys) {
			i := c.idx
			c.idx++
			k := c.leaf.Keys[i]
			if k < c.next {
				continue
			}
			v := c.leaf.Val(i)
			if k == base.Key(^uint64(0)) {
				c.done = true // maximum key: nothing can follow
			} else {
				c.next = k + 1
			}
			return k, v, true, nil
		}
		// Advance past this leaf's range so later redistributions
		// cannot replay pairs.
		if c.leaf.High.Kind == base.PosInf || c.leaf.Link == base.NilPage {
			return 0, 0, false, nil
		}
		if c.leaf.High.K >= c.next {
			c.next = c.leaf.High.K + 1
		}
		n, err := c.t.step(c.leaf.Link, c.next)
		if err != nil {
			return 0, 0, false, err
		}
		c.leaf = n
		c.idx = 0
		c.t.prefetchLink(n)
	}
}

// seek positions the cursor at the leaf that may contain c.next.
func (c *Cursor) seek() error {
	id, n, err := c.t.descend(c.next, nil)
	if err != nil {
		return err
	}
	if _, n, err = c.t.moveright(id, n, c.next); err != nil {
		return err
	}
	c.leaf = n
	c.idx = 0
	c.started = true
	c.t.prefetchLink(n)
	return nil
}

// Seek repositions the cursor before the smallest key ≥ k. Seeking
// backwards is allowed.
func (c *Cursor) Seek(k base.Key) {
	c.next = k
	c.leaf = nil
	c.idx = 0
	c.done = false
	c.err = nil
}
