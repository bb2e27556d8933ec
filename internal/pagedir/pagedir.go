// Package pagedir is the one page-id → slot lookup of the tree's
// substrate: a lock-free, append-only directory indexed by base.PageID.
// node.MemStore keeps its node pointers in one and the lock tables keep
// their mutexes in one, so a Get or a Lock is an index, not a probe.
//
// Page ids are dense and start at 1 on every store, which is what makes
// an array the right shape. The array is chunked so that it can grow
// without moving a slot: chunk c holds first<<c slots, the spine of
// chunk headers is a fixed array inside the Dir, and a reader finds its
// chunk from the id's leading bit. Growth is geometric like append's,
// so memory follows the page count (at most twice the slots in use) and
// nothing is sized up front.
//
// Who writes what: a chunk header is written once, before limit first
// admits an id in that chunk, and never again; limit moves once per
// doubling. At therefore reads lines nothing writes in the steady state,
// and the slot it returns is the only word its caller shares with
// writers of the same page.
package pagedir

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"blinktree/internal/base"
)

const (
	firstBits = 6 // the first chunk holds 64 slots
	first     = 1 << firstBits
	// PageID is 32 bits wide: the last id's index plus first has a
	// leading bit of at most 32, which lands in chunk 32 - firstBits.
	spineLen = 33 - firstBits
)

// Dir maps page ids to slots of type T. The zero Dir is empty and ready
// to use; a Dir must not be copied after first use. Slots start as the
// zero T and keep their address for the life of the Dir.
type Dir[T any] struct {
	limit  atomic.Uint64 // ids 1..limit have slots
	chunks [spineLen][]T

	mu sync.Mutex // serializes growth
}

// At returns the slot of id, or nil when the directory has not grown
// that far (which includes base.NilPage). It takes no lock and writes
// nothing.
func (d *Dir[T]) At(id base.PageID) *T {
	i := uint64(id) - 1 // NilPage wraps past every limit
	if i >= d.limit.Load() {
		return nil
	}
	j := i + first
	top := bits.Len64(j) - 1
	return &d.chunks[top-firstBits][j^(1<<top)]
}

// Ensure returns the slot of id, first growing the directory until it
// has one. The slots of every smaller id exist afterwards too: the
// directory is dense, so callers pass it the ids an allocator hands out
// in order, not arbitrary numbers. The nil page id has no slot; asking
// for it is a bug and panics.
func (d *Dir[T]) Ensure(id base.PageID) *T {
	if p := d.At(id); p != nil {
		return p
	}
	return d.grow(id)
}

func (d *Dir[T]) grow(id base.PageID) *T {
	if id == base.NilPage {
		panic("pagedir: Ensure of the nil page id")
	}
	d.mu.Lock()
	limit := d.limit.Load()
	for uint64(id) > limit {
		c := bits.Len64(limit+first) - 1 - firstBits // the first chunk not yet published
		d.chunks[c] = make([]T, first<<c)
		limit += first << c
		// The store publishes the header written above: a reader that
		// sees the new limit sees the chunk.
		d.limit.Store(limit)
	}
	d.mu.Unlock()
	return d.At(id)
}
