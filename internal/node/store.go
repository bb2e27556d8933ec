package node

import (
	"fmt"
	"sync"
	"sync/atomic"

	"blinktree/internal/base"
	"blinktree/internal/pagedir"
)

// Store provides the paper's get/put model over Nodes (§2.2): Get and
// Put of a single page are indivisible, Get never blocks (not even on a
// locked node — locks live in a separate table), and a Get concurrent
// with a Put returns a complete before- or after-image.
//
// The structure of a node returned by Get never changes; Put publishes
// a new version for the page named by n.ID. The value words are the one
// mutable part: SetValue overwrites one in place, and a reader sees
// either the value before or the value after, and once it has seen the
// after-value no later Get of the page returns the before-value.
type Store interface {
	// Get returns the current snapshot of the page.
	Get(id base.PageID) (*Node, error)
	// Put atomically replaces the snapshot of page n.ID.
	Put(n *Node) error
	// SetValue stores v as the value of pair i of leaf n, in place. n
	// must be the page's current version, read by Get under the page's
	// lock, and the caller must hold that lock across the call.
	SetValue(n *Node, i int, v base.Value) error
	// Allocate reserves a fresh page id.
	Allocate() (base.PageID, error)
	// Free returns a page to the allocator.
	Free(id base.PageID) error
	// ReadPrime returns the current prime block.
	ReadPrime() (Prime, error)
	// WritePrime atomically replaces the prime block.
	WritePrime(Prime) error
	// Pages returns the number of allocated node pages.
	Pages() int
	// Close releases resources.
	Close() error
}

// MemStore keeps node snapshots in memory behind atomic pointers. It is
// the fastest substrate and the reference implementation of the
// indivisibility contract: Put is a single pointer swap, SetValue a
// single word store, and Get takes no lock and writes no shared memory
// — closed check, directory index, pointer load.
type MemStore struct {
	// Read by every Get and Put, written almost never: closed once, the
	// prime block per root split, the directory's spine once per
	// doubling of the page count.
	closed atomic.Bool
	prime  atomic.Pointer[Prime]
	dir    pagedir.Dir[atomic.Pointer[Node]] // nil slot = unallocated, reserved = allocated, not yet written

	_ [64]byte // keeps the allocator's words, which every Allocate and Free writes, off the lines above

	mu    sync.Mutex // guards the allocator: next, free, pages
	next  base.PageID
	free  []base.PageID
	pages int
}

// reserved marks a slot whose page is allocated but not yet written, so
// that Put and Free can tell it from an unallocated one.
var reserved = new(Node)

// NewMemStore returns an empty in-memory node store with an empty prime
// block (no root).
func NewMemStore() *MemStore {
	s := &MemStore{}
	s.prime.Store(&Prime{})
	return s
}

// Get implements Store.
func (s *MemStore) Get(id base.PageID) (*Node, error) {
	if s.closed.Load() {
		return nil, base.ErrClosed
	}
	if sl := s.dir.At(id); sl != nil {
		if n := sl.Load(); n != nil && n != reserved {
			return n, nil
		}
	}
	return nil, fmt.Errorf("%w: page %d unallocated or never written", base.ErrCorrupt, id)
}

// Put implements Store. A Put that races the Free of its own page is
// outside the contract (the §5.3 epoch rule frees a page only after
// every operation that could write it has finished).
func (s *MemStore) Put(n *Node) error {
	if s.closed.Load() {
		return base.ErrClosed
	}
	if n.ID == base.NilPage {
		return fmt.Errorf("%w: Put of node with nil id", base.ErrCorrupt)
	}
	sl := s.dir.At(n.ID)
	if sl == nil || sl.Load() == nil {
		return fmt.Errorf("%w: page %d unallocated", base.ErrCorrupt, n.ID)
	}
	sl.Store(n)
	return nil
}

// SetValue implements Store with one atomic store into the version the
// page's slot holds. Every reader reaches a page through that slot, so
// a reader that saw the new value can only see it or a later one.
func (s *MemStore) SetValue(n *Node, i int, v base.Value) error {
	if s.closed.Load() {
		return base.ErrClosed
	}
	if sl := s.dir.At(n.ID); sl == nil || sl.Load() != n {
		return fmt.Errorf("%w: SetValue on a version page %d no longer holds", base.ErrCorrupt, n.ID)
	}
	n.setVal(i, v)
	return nil
}

// Allocate implements Store.
func (s *MemStore) Allocate() (base.PageID, error) {
	if s.closed.Load() {
		return base.NilPage, base.ErrClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var id base.PageID
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.next++
		id = s.next
	}
	s.dir.Ensure(id).Store(reserved)
	s.pages++
	return id, nil
}

// Free implements Store. It clears the slot, so that a Get of the id
// fails until the page is allocated and written again and a recycled id
// never shows the node of its previous life.
func (s *MemStore) Free(id base.PageID) error {
	if s.closed.Load() {
		return base.ErrClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sl := s.dir.At(id)
	if sl == nil || sl.Load() == nil {
		return fmt.Errorf("%w: Free of unallocated page %d", base.ErrCorrupt, id)
	}
	sl.Store(nil)
	s.free = append(s.free, id)
	s.pages--
	return nil
}

// ReadPrime implements Store.
func (s *MemStore) ReadPrime() (Prime, error) {
	if s.closed.Load() {
		return Prime{}, base.ErrClosed
	}
	return *s.prime.Load(), nil
}

// WritePrime implements Store.
func (s *MemStore) WritePrime(p Prime) error {
	if s.closed.Load() {
		return base.ErrClosed
	}
	cp := p.Clone()
	s.prime.Store(&cp)
	return nil
}

// Pages implements Store.
func (s *MemStore) Pages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pages
}

// Close implements Store.
func (s *MemStore) Close() error {
	s.closed.Store(true)
	return nil
}
