package compress

import (
	"sync"

	"blinktree/internal/base"
	"blinktree/internal/blink"
)

// Queue is the compression queue of §5.4: a deduplicated set of
// underfull nodes keyed by page id, drained highest-level-first (the
// paper's footnote 17: "give priority to nodes having a higher level").
// All methods are safe for concurrent use.
type Queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	byID   map[base.PageID]*entry
	levels map[int][]*entry // FIFO per level; lazily compacted
	maxLvl int
	closed bool

	offered, popped, updated, removed uint64
}

type entry struct {
	ev       blink.UnderfullEvent
	dequeued bool // popped or removed; still referenced from levels slice
}

// NewQueue returns an empty queue.
func NewQueue() *Queue {
	q := &Queue{
		byID:   make(map[base.PageID]*entry),
		levels: make(map[int][]*entry),
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Offer adds ev to the queue. If the node is already queued and update
// is true, the stored high value is refreshed (callers holding the
// node's lock have information "identical to or more recent than the
// one stored on the queue", §5.4); with update false the existing entry
// is left untouched (the left-neighbour requeue case, where the queued
// information "must have been put there after the process removed A
// and, hence, is more recent").
func (q *Queue) Offer(ev blink.UnderfullEvent, update bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	if e, ok := q.byID[ev.ID]; ok {
		if update {
			// The level of a node never changes; the stack need not be
			// refreshed (§5.4).
			e.ev.High = ev.High
			q.updated++
		}
		return
	}
	e := &entry{ev: ev}
	q.byID[ev.ID] = e
	q.levels[ev.Level] = append(q.levels[ev.Level], e)
	if ev.Level > q.maxLvl {
		q.maxLvl = ev.Level
	}
	q.offered++
	q.cond.Signal()
}

// Remove drops the queued entry for id, if any — used when a merge
// deletes a node that was itself awaiting compression.
func (q *Queue) Remove(id base.PageID) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if e, ok := q.byID[id]; ok {
		e.dequeued = true
		delete(q.byID, id)
		q.removed++
	}
}

// TryPop removes and returns the highest-level entry without blocking.
func (q *Queue) TryPop() (blink.UnderfullEvent, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.popLocked()
}

// Wait blocks until the queue holds an entry or is closed, and reports
// which: true means TryPop is worth calling (another consumer may still
// win the entry). It removes nothing, so a consumer can take whatever
// lock must cover its work between waking and popping.
func (q *Queue) Wait() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.byID) == 0 && !q.closed {
		q.cond.Wait()
	}
	return len(q.byID) > 0
}

func (q *Queue) popLocked() (blink.UnderfullEvent, bool) {
	for lvl := q.maxLvl; lvl >= 0; lvl-- {
		bucket := q.levels[lvl]
		for len(bucket) > 0 {
			e := bucket[0]
			bucket = bucket[1:]
			if e.dequeued {
				continue
			}
			q.levels[lvl] = bucket
			e.dequeued = true
			delete(q.byID, e.ev.ID)
			q.popped++
			return e.ev, true
		}
		q.levels[lvl] = bucket
	}
	return blink.UnderfullEvent{}, false
}

// Len returns the number of queued entries.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.byID)
}

// Close wakes all blocked Waits; subsequent Offers are dropped.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// QueueStats is a snapshot of queue activity.
type QueueStats struct {
	Offered, Popped, Updated, Removed uint64
	Pending                           int
}

// Stats returns the lifetime counters.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return QueueStats{
		Offered: q.offered, Popped: q.popped,
		Updated: q.updated, Removed: q.removed,
		Pending: len(q.byID),
	}
}
