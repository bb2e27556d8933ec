// Package coarse is the zero-concurrency baseline: the shared B-link
// tree (internal/blink) behind a single RWMutex, with no node locks of
// its own. Readers share; any update excludes everything. Every
// concurrent-index paper implicitly compares against this floor; the
// gate's baseline.coarse_ops_per_s rung uses it to show what the
// fine-grained protocols buy over the same tree.
package coarse

import (
	"sync"

	"blinktree/internal/base"
	"blinktree/internal/blink"
)

// Tree is a coarsely locked B-link tree implementing base.Tree.
type Tree struct {
	mu sync.RWMutex
	t  *blink.Tree
}

// noLocks is the tree's node lock table: the RWMutex already excludes
// every other writer, so a node lock would exclude nothing.
type noLocks struct{}

func (noLocks) Lock(base.PageID)   {}
func (noLocks) Unlock(base.PageID) {}

// New returns an empty tree whose nodes hold between k and 2k pairs.
func New(k int) (*Tree, error) {
	t, err := blink.New(blink.Config{Locks: noLocks{}, MinPairs: k})
	if err != nil {
		return nil, err
	}
	return &Tree{t: t}, nil
}

// Search implements base.Tree.
func (c *Tree) Search(k base.Key) (base.Value, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.t.Search(k)
}

// Insert implements base.Tree.
func (c *Tree) Insert(k base.Key, v base.Value) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.Insert(k, v)
}

// Delete implements base.Tree.
func (c *Tree) Delete(k base.Key) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.Delete(k)
}

// Upsert implements base.Tree.
func (c *Tree) Upsert(k base.Key, v base.Value) (base.Value, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.Upsert(k, v)
}

// GetOrInsert implements base.Tree.
func (c *Tree) GetOrInsert(k base.Key, v base.Value) (base.Value, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.GetOrInsert(k, v)
}

// Update implements base.Tree.
func (c *Tree) Update(k base.Key, fn func(base.Value) base.Value) (base.Value, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.Update(k, fn)
}

// CompareAndSwap implements base.Tree.
func (c *Tree) CompareAndSwap(k base.Key, old, new base.Value) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.CompareAndSwap(k, old, new)
}

// CompareAndDelete implements base.Tree.
func (c *Tree) CompareAndDelete(k base.Key, old base.Value) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.CompareAndDelete(k, old)
}

// Range implements base.Tree.
func (c *Tree) Range(lo, hi base.Key, fn func(base.Key, base.Value) bool) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
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
	return c.t.Close()
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
