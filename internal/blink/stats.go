package blink

import (
	"sync/atomic"

	"blinktree/internal/locks"
)

// statStripes is the number of copies of the per-operation counters.
// An operation records on the stripe its pooled scratch was born with
// (scratch.go); scratches stay with a P, so a stripe's lines stay in
// one core's cache instead of travelling to every core that finishes
// an operation.
const statStripes = 16

// opCounters is one stripe of what every operation writes: its kind's
// counter, its lock footprint and its effect on the pair count. The
// padding keeps two stripes off one cache line.
type opCounters struct {
	searches atomic.Uint64
	inserts  atomic.Uint64
	deletes  atomic.Uint64
	scans    atomic.Uint64

	upserts atomic.Uint64 // Upsert + GetOrInsert
	updates atomic.Uint64 // Update
	cas     atomic.Uint64 // CompareAndSwap + CompareAndDelete attempts

	length atomic.Int64 // pairs added minus pairs removed; state, not reset

	insertFP locks.FootprintStats
	deleteFP locks.FootprintStats
	condFP   locks.FootprintStats

	_ [96]byte
}

// Stats holds the tree's counters: the striped per-operation ones, and
// single counters for events that a steady workload sees rarely (a
// split per dozen insertions, a link hop or restart per thousands of
// operations). All fields are updated atomically; Snapshot returns a
// consistent-enough copy for reporting.
type Stats struct {
	ops [statStripes]opCounters

	splits     atomic.Uint64 // node splits, including root splits
	rootSplits atomic.Uint64 // new roots created

	linkHops    atomic.Uint64 // right-link follows (the B-link overhead)
	outlinkHops atomic.Uint64 // deleted-node forwards (§5.2 case 1)
	restarts    atomic.Uint64 // wrong-node restarts (§5.2 case 2)
	backtracks  atomic.Uint64 // restart attempts resumed from the stack
	levelWaits  atomic.Uint64 // §3.3 waits for a level to appear

	underfullEvents atomic.Uint64 // underfull hook firings
}

// of returns the stripe an operation holding sc records on.
func (s *Stats) of(sc *opScratch) *opCounters { return &s.ops[sc.stripe%statStripes] }

// StatsSnapshot is a point-in-time copy of the counters.
type StatsSnapshot struct {
	Searches, Inserts, Deletes, Scans uint64

	// Upserts counts Upsert + GetOrInsert, Updates counts Update, and
	// Cas counts CompareAndSwap + CompareAndDelete attempts (successful
	// or not).
	Upserts, Updates, Cas uint64

	Splits, RootSplits uint64

	LinkHops, OutlinkHops, Restarts, Backtracks, LevelWaits uint64

	UnderfullEvents uint64

	// InsertLocks, DeleteLocks and CondLocks summarize the lock
	// footprint of updates (CondLocks covers the conditional writes).
	// Searches take no locks by construction.
	InsertLocks locks.Footprint
	DeleteLocks locks.Footprint
	CondLocks   locks.Footprint
}

// Stats returns a snapshot of the counters.
func (t *Tree) Stats() StatsSnapshot {
	s := StatsSnapshot{
		Splits:          t.stats.splits.Load(),
		RootSplits:      t.stats.rootSplits.Load(),
		LinkHops:        t.stats.linkHops.Load(),
		OutlinkHops:     t.stats.outlinkHops.Load(),
		Restarts:        t.stats.restarts.Load(),
		Backtracks:      t.stats.backtracks.Load(),
		LevelWaits:      t.stats.levelWaits.Load(),
		UnderfullEvents: t.stats.underfullEvents.Load(),
	}
	var ins, del, cond [statStripes]*locks.FootprintStats
	for i := range t.stats.ops {
		o := &t.stats.ops[i]
		s.Searches += o.searches.Load()
		s.Inserts += o.inserts.Load()
		s.Deletes += o.deletes.Load()
		s.Scans += o.scans.Load()
		s.Upserts += o.upserts.Load()
		s.Updates += o.updates.Load()
		s.Cas += o.cas.Load()
		ins[i], del[i], cond[i] = &o.insertFP, &o.deleteFP, &o.condFP
	}
	s.InsertLocks = locks.SumFootprints(ins[:]...)
	s.DeleteLocks = locks.SumFootprints(del[:]...)
	s.CondLocks = locks.SumFootprints(cond[:]...)
	return s
}

// ResetStats zeroes every counter.
func (t *Tree) ResetStats() {
	for i := range t.stats.ops {
		o := &t.stats.ops[i]
		o.searches.Store(0)
		o.inserts.Store(0)
		o.deletes.Store(0)
		o.scans.Store(0)
		o.upserts.Store(0)
		o.updates.Store(0)
		o.cas.Store(0)
		o.insertFP.Reset()
		o.deleteFP.Reset()
		o.condFP.Reset()
	}
	t.stats.splits.Store(0)
	t.stats.rootSplits.Store(0)
	t.stats.linkHops.Store(0)
	t.stats.outlinkHops.Store(0)
	t.stats.restarts.Store(0)
	t.stats.backtracks.Store(0)
	t.stats.levelWaits.Store(0)
	t.stats.underfullEvents.Store(0)
}
