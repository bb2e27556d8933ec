package locks

import (
	"fmt"
	"sync/atomic"

	"blinktree/internal/base"
)

// Holder wraps a Locker on behalf of one logical operation and accounts
// for the number of locks held simultaneously. Holders are not safe for
// concurrent use; each operation owns one.
//
// The accounting feeds every footprint assertion: the paper's central
// efficiency argument is that an insertion "has to lock only one node
// at any time" (abstract, §3.1) versus two or three in Lehman–Yao.
type Holder struct {
	l       Locker
	held    []base.PageID // pages currently locked, in acquisition order
	maxHeld int
	locks   int // total acquisitions by this operation
	// heldBuf backs held for the common case. The paper's algorithms
	// hold at most a handful of locks at once (Sagiv holds one), so a
	// per-op Holder never allocates: Init points held at this array and
	// the point-op hot path declares Holders as stack values.
	heldBuf [4]base.PageID
}

// NewHolder returns a Holder acquiring through l.
func NewHolder(l Locker) *Holder {
	h := &Holder{}
	h.Init(l)
	return h
}

// Init prepares a zero Holder to acquire through l — the
// allocation-free alternative to NewHolder for callers that keep the
// Holder as a stack value.
func (h *Holder) Init(l Locker) {
	h.l = l
	h.held = h.heldBuf[:0]
	h.maxHeld = 0
	h.locks = 0
}

// Reset prepares the Holder for a new operation. It panics if locks are
// still held: leaking a page lock is always a bug.
func (h *Holder) Reset() {
	if len(h.held) != 0 {
		panic(fmt.Sprintf("locks: Reset with %d locks still held: %v", len(h.held), h.held))
	}
	h.maxHeld = 0
	h.locks = 0
}

// Lock acquires the page lock. Acquiring a page already held by this
// Holder panics (the paper's locks are not reentrant).
func (h *Holder) Lock(id base.PageID) {
	for _, p := range h.held {
		if p == id {
			panic(fmt.Sprintf("locks: re-lock of page %d by same operation", id))
		}
	}
	h.l.Lock(id)
	h.held = append(h.held, id)
	h.locks++
	if len(h.held) > h.maxHeld {
		h.maxHeld = len(h.held)
	}
}

// Unlock releases the page lock, which must be held by this Holder.
func (h *Holder) Unlock(id base.PageID) {
	for i, p := range h.held {
		if p == id {
			h.held = append(h.held[:i], h.held[i+1:]...)
			h.l.Unlock(id)
			return
		}
	}
	panic(fmt.Sprintf("locks: Unlock of page %d not held", id))
}

// UnlockAll releases every held lock in reverse acquisition order. It is
// the error-path escape hatch.
func (h *Holder) UnlockAll() {
	for i := len(h.held) - 1; i >= 0; i-- {
		h.l.Unlock(h.held[i])
	}
	h.held = h.held[:0]
}

// Held returns the number of locks currently held.
func (h *Holder) Held() int { return len(h.held) }

// MaxHeld returns the maximum number of locks held simultaneously since
// the last Reset.
func (h *Holder) MaxHeld() int { return h.maxHeld }

// Locks returns the total number of acquisitions since the last Reset.
func (h *Holder) Locks() int { return h.locks }

// FootprintStats aggregates Holder observations across operations. All
// methods are safe for concurrent use.
type FootprintStats struct {
	ops      atomic.Uint64
	acquires atomic.Uint64
	maxHeld  atomic.Uint64 // high-water across all operations
	sumMax   atomic.Uint64 // sum of per-op maxima, for the mean
}

// Record folds one finished operation's Holder into the stats.
func (s *FootprintStats) Record(h *Holder) {
	s.RecordCounts(h.MaxHeld(), h.Locks())
}

// RecordCounts folds one finished operation's raw lock counts into the
// stats — for algorithms (e.g. RW lock coupling) that do not use a
// Holder.
func (s *FootprintStats) RecordCounts(maxHeld, acquires int) {
	s.ops.Add(1)
	s.acquires.Add(uint64(acquires))
	s.sumMax.Add(uint64(maxHeld))
	m := uint64(maxHeld)
	for {
		cur := s.maxHeld.Load()
		if m <= cur || s.maxHeld.CompareAndSwap(cur, m) {
			break
		}
	}
}

// Footprint is a snapshot of FootprintStats.
type Footprint struct {
	Ops         uint64  // operations recorded
	Acquires    uint64  // total lock acquisitions
	MaxHeld     uint64  // max locks held simultaneously by any operation
	MeanMaxHeld float64 // mean of per-operation maxima
	MeanLocks   float64 // mean acquisitions per operation
}

// Snapshot returns the current aggregate.
func (s *FootprintStats) Snapshot() Footprint { return SumFootprints(s) }

// SumFootprints returns the aggregate of several FootprintStats as one
// Footprint — how a caller that keeps one FootprintStats per stripe, so
// that concurrent operations record on different cache lines, reads
// them back.
func SumFootprints(parts ...*FootprintStats) Footprint {
	var f Footprint
	var sumMax uint64
	for _, s := range parts {
		f.Ops += s.ops.Load()
		f.Acquires += s.acquires.Load()
		f.MaxHeld = max(f.MaxHeld, s.maxHeld.Load())
		sumMax += s.sumMax.Load()
	}
	if f.Ops > 0 {
		f.MeanMaxHeld = float64(sumMax) / float64(f.Ops)
		f.MeanLocks = float64(f.Acquires) / float64(f.Ops)
	}
	return f
}

// Reset zeroes the aggregate.
func (s *FootprintStats) Reset() {
	s.ops.Store(0)
	s.acquires.Store(0)
	s.maxHeld.Store(0)
	s.sumMax.Store(0)
}
