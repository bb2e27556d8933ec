// Package locks implements the lock substrate of the paper's model
// (§2.2): a single lock type per node that excludes other lockers but
// not readers — Table, one mutex per page held in a page directory
// (internal/pagedir), so that taking a page's lock touches that page's
// mutex and no other shared word. It also provides
//
//   - Holder: per-operation accounting of how many locks are held
//     simultaneously, which is the unit of the paper's headline claim
//     (Sagiv insertions hold 1, Lehman–Yao up to 3, lock coupling ≥ 2);
//   - RWTable: read/write locks for the lock-coupling baseline;
//   - Detector: a wait-for-graph deadlock detector used as a test oracle
//     for Theorem 2's deadlock-freedom proof.
package locks

import (
	"sync"

	"blinktree/internal/base"
	"blinktree/internal/pagedir"
)

// Locker is a per-page mutual-exclusion service. Lock blocks until the
// page lock is available. Locks are not reentrant.
type Locker interface {
	Lock(id base.PageID)
	Unlock(id base.PageID)
}

// Table is the standard Locker: one mutex per page, kept in a directory
// indexed by page id (internal/pagedir), so Lock and Unlock are the
// page's own mutex operation and nothing else — no table-wide or
// shard-wide lock, no hashing, no per-page allocation. The directory
// grows with the largest id ever locked; the per-page footprint is the
// mutex's 8 bytes.
type Table struct {
	dir pagedir.Dir[sync.Mutex]
}

// NewTable returns an empty lock table.
func NewTable() *Table { return &Table{} }

// Lock implements Locker.
func (t *Table) Lock(id base.PageID) { t.dir.Ensure(id).Lock() }

// Unlock implements Locker.
func (t *Table) Unlock(id base.PageID) { t.dir.Ensure(id).Unlock() }

// RWTable provides per-page read/write locks for algorithms (the
// lock-coupling baseline) that, unlike the paper's, make readers lock.
// It is laid out like Table.
type RWTable struct {
	dir pagedir.Dir[sync.RWMutex]
}

// NewRWTable returns an empty read/write lock table.
func NewRWTable() *RWTable { return &RWTable{} }

// RLock takes the page lock in shared mode.
func (t *RWTable) RLock(id base.PageID) { t.dir.Ensure(id).RLock() }

// RUnlock releases a shared hold.
func (t *RWTable) RUnlock(id base.PageID) { t.dir.Ensure(id).RUnlock() }

// Lock takes the page lock exclusively.
func (t *RWTable) Lock(id base.PageID) { t.dir.Ensure(id).Lock() }

// Unlock releases an exclusive hold.
func (t *RWTable) Unlock(id base.PageID) { t.dir.Ensure(id).Unlock() }
