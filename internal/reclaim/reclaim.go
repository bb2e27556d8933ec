// Package reclaim implements epoch-based reclamation of deleted pages.
//
// The paper (§5.3) observes that a node emptied by compression cannot be
// handed back to the allocator immediately: concurrently running
// searches may still hold its address and must be able to read its
// deletion bit and outlink. The paper's release rule — "a node that
// becomes empty at time t can be released when all active searches,
// insertions, and deletions have started after time t" — is exactly
// epoch-based reclamation, which this package provides:
//
//   - every logical operation brackets itself with Enter/Exit;
//   - Retire(id) parks a dead page in a limbo list stamped with the
//     current epoch;
//   - Collect frees every limbo page whose epoch precedes the oldest
//     live operation.
package reclaim

import (
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"blinktree/internal/base"
)

// slots is the number of striped activity slots. More slots than
// expected concurrent operations keeps Enter wait-free in practice.
const slots = 128

// FreeFunc returns a page to the allocator.
type FreeFunc func(base.PageID) error

// Reclaimer tracks live operations and limbo pages. All methods are safe
// for concurrent use.
type Reclaimer struct {
	free FreeFunc

	epoch atomic.Uint64 // current global epoch, starts at 1
	slot  [slots]paddedSlot

	mu      sync.Mutex
	limbo   []retired
	retired atomic.Uint64 // lifetime count of Retire calls
	freed   atomic.Uint64 // lifetime count of pages handed to free
}

type paddedSlot struct {
	epoch atomic.Uint64 // 0 = inactive, else the epoch the op entered at
	_     [7]uint64     // avoid false sharing between adjacent slots
}

type retired struct {
	id    base.PageID
	epoch uint64
}

// New returns a Reclaimer that frees pages through free.
func New(free FreeFunc) *Reclaimer {
	r := &Reclaimer{free: free}
	r.epoch.Store(1)
	return r
}

// Guard is an open Enter bracket. The zero Guard is invalid.
type Guard struct {
	slot int
}

// Enter marks the start of a logical operation and returns its Guard.
// Every Enter must be paired with exactly one Exit.
//
// Slot choice matters on the hot path: Enter brackets every read as
// well as every write, and an earlier version assigned slots from a
// shared atomic cursor — a read-modify-write on one cache line that
// every concurrent operation fought over. The cursor is gone: each
// Enter starts at a slot drawn from the runtime's per-thread random
// state (rand.Uint64 takes no locks and touches no shared memory) and
// probes linearly from there, so the only shared write left is the CAS
// that claims a free slot, almost always uncontended with 128 slots.
func (r *Reclaimer) Enter() Guard { return r.EnterAt(uint32(rand.Uint64())) }

// EnterAt is Enter for a caller that has something better than a random
// number to choose its slot with: hint names the slot to try first. A
// caller whose hint stays with one CPU (a number carried by a sync.Pool
// object, say) keeps that slot's line in that CPU's cache, where a
// random choice lands on a line some other CPU wrote last.
func (r *Reclaimer) EnterAt(hint uint32) Guard {
	e := r.epoch.Load()
	i := int(hint % slots)
	for {
		if r.slot[i].epoch.CompareAndSwap(0, e) {
			return Guard{slot: i + 1}
		}
		i++
		if i == slots {
			i = 0
		}
	}
}

// Exit closes the bracket opened by Enter.
func (r *Reclaimer) Exit(g Guard) {
	if g.slot == 0 {
		panic("reclaim: Exit with zero Guard")
	}
	r.slot[g.slot-1].epoch.Store(0)
}

// Retire parks a dead page; it will be freed by a later Collect once no
// operation that might still reference it remains live.
func (r *Reclaimer) Retire(id base.PageID) {
	e := r.epoch.Load()
	r.mu.Lock()
	r.limbo = append(r.limbo, retired{id: id, epoch: e})
	r.mu.Unlock()
	r.retired.Add(1)
}

// minActive returns the oldest epoch of any live operation, or MaxUint64
// if none are live.
func (r *Reclaimer) minActive() uint64 {
	min := uint64(math.MaxUint64)
	for i := range r.slot {
		if e := r.slot[i].epoch.Load(); e != 0 && e < min {
			min = e
		}
	}
	return min
}

// Collect advances the epoch and frees every limbo page retired before
// the oldest live operation entered. It returns the number of pages
// freed and the first free error encountered, if any.
func (r *Reclaimer) Collect() (int, error) {
	r.epoch.Add(1)
	min := r.minActive()

	r.mu.Lock()
	var keep, release []retired
	for _, it := range r.limbo {
		if it.epoch < min {
			release = append(release, it)
		} else {
			keep = append(keep, it)
		}
	}
	r.limbo = keep
	r.mu.Unlock()

	var firstErr error
	n := 0
	for _, it := range release {
		if err := r.free(it.id); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		n++
	}
	r.freed.Add(uint64(n))
	return n, firstErr
}

// ReclaimStats is a snapshot of lifetime counters.
type ReclaimStats struct {
	Retired uint64 // pages ever retired
	Freed   uint64 // pages handed back to the allocator
	Limbo   int    // pages currently parked
}

// Stats returns the current counters.
func (r *Reclaimer) Stats() ReclaimStats {
	r.mu.Lock()
	l := len(r.limbo)
	r.mu.Unlock()
	return ReclaimStats{
		Retired: r.retired.Load(),
		Freed:   r.freed.Load(),
		Limbo:   l,
	}
}
