package node

import (
	"fmt"
	"sync"
	"sync/atomic"

	"blinktree/internal/base"
	"blinktree/internal/storage"
)

// Prefetcher is the optional read-ahead surface of a Store: a scan that
// knows which page it will visit next can hint it so the page is
// resident by the time the hop happens. Prefetch is best-effort and
// asynchronous; it never blocks and its errors are swallowed.
type Prefetcher interface {
	Prefetch(id base.PageID)
}

// PagedStore implements Store over a storage.Store, serializing nodes
// with the page codec. It is the disk-resident substrate: combined with
// storage.FileStore (+ BufferPool, + Latency) it exercises the regime
// the paper was written for, where a node is a page of secondary
// storage. The first allocated page holds the prime block.
//
// Over a BufferPool the store works frame-native. Get first looks for
// the decoded node cached on the page's frame, without pinning: the
// common warm-cache case takes no lock, reads no page, decodes and
// allocates nothing, and writes no shared memory but a hit counter.
// Otherwise it pins the frame and decodes in place under the frame
// latch. Put caches the node on the frame and encodes it into the frame
// in place, without first reading the page it replaces; SetValue does
// the same with its one-word store in between. A node's structure is
// immutable and its value words change only through SetValue, so a
// cached node can be shared freely; a pin only spans the decode or
// encode, never the caller's use of the node,
// which is what lets the tree above stay lock-free while frames are
// evicted and reused underneath it (the §5.3 epoch rules gate the Free,
// the pool's write-back gates the frame reuse).
type PagedStore struct {
	under  storage.Store
	pool   *storage.BufferPool // non-nil when under is (or wraps) a pool
	prime  base.PageID
	closed atomic.Bool

	// primeCache keeps the decoded prime block behind an atomic pointer:
	// every descend starts with ReadPrime, and re-reading + re-decoding
	// a page per operation would dominate warm-cache serving. primeMu
	// orders WritePrime and cache fills so a stale fill can never
	// overwrite a newer write.
	primeMu    sync.Mutex
	primeCache atomic.Pointer[Prime]
}

// NewPagedStore initializes a paged node store on under, allocating and
// writing an empty prime block. When under is a *storage.BufferPool the
// store uses its pin/unpin surface for zero-copy node access.
func NewPagedStore(under storage.Store) (*PagedStore, error) {
	id, err := under.Allocate()
	if err != nil {
		return nil, fmt.Errorf("node: allocate prime page: %w", err)
	}
	s := &PagedStore{under: under, prime: id}
	if pool, ok := under.(*storage.BufferPool); ok {
		s.pool = pool
	}
	if err := s.WritePrime(Prime{}); err != nil {
		return nil, err
	}
	return s, nil
}

// MaxPairs returns the per-node pair capacity of this store's pages.
func (s *PagedStore) MaxPairs() int { return MaxPairs(s.under.PageSize()) }

// Pool returns the buffer pool beneath the store, or nil when the
// substrate is unpooled.
func (s *PagedStore) Pool() *storage.BufferPool { return s.pool }

// Get implements Store.
func (s *PagedStore) Get(id base.PageID) (*Node, error) {
	if s.closed.Load() {
		return nil, base.ErrClosed
	}
	if s.pool != nil {
		return s.getPooled(id)
	}
	buf := make([]byte, s.under.PageSize())
	if err := s.under.Read(id, buf); err != nil {
		return nil, err
	}
	return Decode(id, buf)
}

// getPooled reads a node through the pool. The pinless path returns
// whatever node the page's frame caches, provided the node says it is
// page id: an unpinned frame can be recycled for another page between
// the directory lookup and the load of its cached node, and the node's
// own ID is what tells. A node that passes was the page's current
// content when it was loaded (storage/doc.go has the argument), and
// that load is where this Get takes effect. On the pinned path the
// cached node is set only under the frame latch, so it always matches
// the frame's bytes; two racing readers may both decode and both cache,
// which is benign: both hold the latch shared, so a writer's install
// (Put, SetValue) comes after either.
func (s *PagedStore) getPooled(id base.PageID) (*Node, error) {
	if fr := s.pool.Peek(id); fr != nil {
		if n := storage.CachedObject[Node](fr); n != nil && n.ID == id {
			s.pool.Touch(fr)
			return n, nil
		}
	}
	fr, err := s.pool.Pin(id)
	if err != nil {
		return nil, err
	}
	if n := storage.CachedObject[Node](fr); n != nil {
		s.pool.Unpin(fr)
		return n, nil
	}
	fr.RLock()
	n, err := Decode(id, fr.Data())
	if err == nil {
		storage.SetCachedObject(fr, n)
	}
	fr.RUnlock()
	s.pool.Unpin(fr)
	return n, err
}

// Put implements Store.
func (s *PagedStore) Put(n *Node) error { return s.write(n, -1, 0) }

// SetValue implements Store: the page is rewritten with the node the
// caller holds, value i now v, in the order a Put would and with the
// store inside it.
//
// Over a pool the order is what keeps the store indivisible. Under the
// frame's exclusive latch, SetValue first installs n as the frame's
// cached node, then stores the word, then re-encodes the page and marks
// it dirty. A reader that saw the new value read it from n after the
// store; from the install on, every Get finds n on the frame or waits on
// the latch, and once the latch is released the bytes hold the new value
// too, so an eviction and a later fault-in serve it as well. Stored
// before the install, the word would be visible through n while the
// frame still cached an older decode of the page (an eviction and a
// fault-in between the caller's Get and SetValue make one) or while the
// page, evicted, was re-read from the old image: a reader could see the
// new value and then the old. Without the re-encode the old image would
// come back at the next fault-in.
func (s *PagedStore) SetValue(n *Node, i int, v base.Value) error { return s.write(n, i, v) }

// write publishes n as page n.ID, storing v as its value i first when
// i ≥ 0.
func (s *PagedStore) write(n *Node, i int, v base.Value) error {
	if s.closed.Load() {
		return base.ErrClosed
	}
	if s.pool == nil {
		if i >= 0 {
			n.setVal(i, v) // a Get decodes a fresh node: n is the caller's alone
		}
		buf := make([]byte, s.under.PageSize())
		if err := Encode(n, buf); err != nil {
			return err
		}
		return s.under.Write(n.ID, buf)
	}
	// Refuse a bad node before a frame is claimed for it: past this
	// point the frame's old bytes are gone and the encode must land.
	if err := encodable(n, s.under.PageSize()); err != nil {
		return err
	}
	fr, err := s.pool.PinOverwrite(n.ID)
	if err != nil {
		return err
	}
	storage.SetCachedObject(fr, n)
	if i >= 0 {
		n.setVal(i, v)
	}
	encode(n, fr.Data())
	fr.MarkDirty()
	fr.Unlock()
	s.pool.Unpin(fr)
	return nil
}

// Allocate implements Store.
func (s *PagedStore) Allocate() (base.PageID, error) {
	if s.closed.Load() {
		return base.NilPage, base.ErrClosed
	}
	return s.under.Allocate()
}

// Free implements Store.
func (s *PagedStore) Free(id base.PageID) error {
	if s.closed.Load() {
		return base.ErrClosed
	}
	return s.under.Free(id)
}

// Prefetch implements Prefetcher: it hints the pool to fault id in
// ahead of demand. No-op without a pool.
func (s *PagedStore) Prefetch(id base.PageID) {
	if s.pool != nil && !s.closed.Load() {
		s.pool.Prefetch(id)
	}
}

// ReadPrime implements Store.
func (s *PagedStore) ReadPrime() (Prime, error) {
	if s.closed.Load() {
		return Prime{}, base.ErrClosed
	}
	// Same sharing discipline as MemStore.ReadPrime: the returned value
	// shallow-copies the cached block, so callers must treat it as
	// read-only (they already must — MemStore shares identically).
	if p := s.primeCache.Load(); p != nil {
		return *p, nil
	}
	s.primeMu.Lock()
	defer s.primeMu.Unlock()
	if p := s.primeCache.Load(); p != nil {
		return *p, nil
	}
	buf := make([]byte, s.under.PageSize())
	if err := s.under.Read(s.prime, buf); err != nil {
		return Prime{}, err
	}
	p, err := DecodePrime(buf)
	if err != nil {
		return Prime{}, err
	}
	s.primeCache.Store(&p)
	return p, nil
}

// WritePrime implements Store.
func (s *PagedStore) WritePrime(p Prime) error {
	if s.closed.Load() {
		return base.ErrClosed
	}
	buf := make([]byte, s.under.PageSize())
	if err := EncodePrime(p, buf); err != nil {
		return err
	}
	s.primeMu.Lock()
	defer s.primeMu.Unlock()
	if err := s.under.Write(s.prime, buf); err != nil {
		return err
	}
	cp := p.Clone()
	s.primeCache.Store(&cp)
	return nil
}

// Pages implements Store (excludes the prime page).
func (s *PagedStore) Pages() int { return s.under.Pages() - 1 }

// Close implements Store.
func (s *PagedStore) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	return s.under.Close()
}
