// Package coarse is the zero-concurrency baseline: a sequential
// B⁺-tree behind a single RWMutex. Readers share; any update excludes
// everything. Every concurrent-index paper implicitly compares against
// this floor; the gate's baseline.coarse_ops_per_s rung uses it to show
// what the fine-grained algorithms buy.
package coarse

import (
	"sync"

	"blinktree/internal/base"
	"blinktree/internal/btree"
)

// Tree is a coarsely locked B⁺-tree implementing base.Tree.
type Tree struct {
	mu     sync.RWMutex
	t      *btree.Tree
	closed bool
}

// New returns an empty tree of minimum degree k.
func New(k int) (*Tree, error) {
	t, err := btree.New(k)
	if err != nil {
		return nil, err
	}
	return &Tree{t: t}, nil
}

// Search implements base.Tree.
func (c *Tree) Search(k base.Key) (base.Value, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return 0, base.ErrClosed
	}
	return c.t.Search(k)
}

// Insert implements base.Tree.
func (c *Tree) Insert(k base.Key, v base.Value) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return base.ErrClosed
	}
	return c.t.Insert(k, v)
}

// Delete implements base.Tree.
func (c *Tree) Delete(k base.Key) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return base.ErrClosed
	}
	return c.t.Delete(k)
}

// Upsert implements base.Tree.
func (c *Tree) Upsert(k base.Key, v base.Value) (base.Value, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, false, base.ErrClosed
	}
	return c.t.Upsert(k, v)
}

// GetOrInsert implements base.Tree.
func (c *Tree) GetOrInsert(k base.Key, v base.Value) (base.Value, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, false, base.ErrClosed
	}
	return c.t.GetOrInsert(k, v)
}

// Update implements base.Tree.
func (c *Tree) Update(k base.Key, fn func(base.Value) base.Value) (base.Value, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, base.ErrClosed
	}
	return c.t.Update(k, fn)
}

// CompareAndSwap implements base.Tree.
func (c *Tree) CompareAndSwap(k base.Key, old, new base.Value) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false, base.ErrClosed
	}
	return c.t.CompareAndSwap(k, old, new)
}

// CompareAndDelete implements base.Tree.
func (c *Tree) CompareAndDelete(k base.Key, old base.Value) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false, base.ErrClosed
	}
	return c.t.CompareAndDelete(k, old)
}

// Range implements base.Tree.
func (c *Tree) Range(lo, hi base.Key, fn func(base.Key, base.Value) bool) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return base.ErrClosed
	}
	return c.t.Range(lo, hi, fn)
}

// Len implements base.Tree.
func (c *Tree) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.t.Len()
}

// Close implements base.Tree.
func (c *Tree) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

// Check validates the underlying tree's invariants.
func (c *Tree) Check() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.t.Check()
}

// Height returns the tree height.
func (c *Tree) Height() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.t.Height()
}
