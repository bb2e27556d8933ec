package locks

import (
	"sync"
	"testing"
	"time"

	"blinktree/internal/base"
)

func TestTableMutualExclusion(t *testing.T) {
	tab := NewTable()
	const page = base.PageID(7)
	var inside, maxInside int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tab.Lock(page)
				mu.Lock()
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				mu.Unlock()
				mu.Lock()
				inside--
				mu.Unlock()
				tab.Unlock(page)
			}
		}()
	}
	wg.Wait()
	if maxInside != 1 {
		t.Fatalf("critical section had %d goroutines", maxInside)
	}
}

func TestTableDistinctPagesIndependent(t *testing.T) {
	tab := NewTable()
	tab.Lock(1)
	done := make(chan struct{})
	go func() {
		tab.Lock(2) // must not block on page 1's lock
		tab.Unlock(2)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("lock on a different page blocked")
	}
	tab.Unlock(1)
}

func TestHolderAccounting(t *testing.T) {
	h := NewHolder(NewTable())
	h.Lock(1)
	h.Lock(2)
	h.Lock(3)
	if h.Held() != 3 || h.MaxHeld() != 3 {
		t.Fatalf("held=%d max=%d, want 3/3", h.Held(), h.MaxHeld())
	}
	h.Unlock(2)
	if h.Held() != 2 || h.MaxHeld() != 3 {
		t.Fatalf("held=%d max=%d after one unlock, want 2/3", h.Held(), h.MaxHeld())
	}
	h.Lock(4)
	h.Unlock(1)
	h.Unlock(3)
	h.Unlock(4)
	if h.Held() != 0 {
		t.Fatal("locks leaked")
	}
	if h.Locks() != 4 {
		t.Fatalf("total acquisitions = %d, want 4", h.Locks())
	}
	h.Reset()
	if h.MaxHeld() != 0 || h.Locks() != 0 {
		t.Fatal("Reset did not clear counters")
	}
}

func TestHolderPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	h := NewHolder(NewTable())
	h.Lock(1)
	mustPanic("re-lock", func() { h.Lock(1) })
	mustPanic("reset while held", func() { h.Reset() })
	h.Unlock(1)
	mustPanic("unlock not held", func() { h.Unlock(9) })
}

func TestHolderUnlockAll(t *testing.T) {
	tab := NewTable()
	h := NewHolder(tab)
	h.Lock(1)
	h.Lock(2)
	h.UnlockAll()
	if h.Held() != 0 {
		t.Fatal("UnlockAll left locks")
	}
	// Pages must actually be free again.
	tab.Lock(1)
	tab.Unlock(1)
	tab.Lock(2)
	tab.Unlock(2)
}

func TestFootprintStats(t *testing.T) {
	tab := NewTable()
	var fs FootprintStats

	h := NewHolder(tab)
	h.Lock(1)
	h.Lock(2)
	h.Unlock(1)
	h.Unlock(2)
	fs.Record(h)
	h.Reset()

	h.Lock(3)
	h.Unlock(3)
	fs.Record(h)
	h.Reset()

	snap := fs.Snapshot()
	if snap.Ops != 2 || snap.Acquires != 3 || snap.MaxHeld != 2 {
		t.Fatalf("unexpected snapshot: %+v", snap)
	}
	if snap.MeanMaxHeld != 1.5 || snap.MeanLocks != 1.5 {
		t.Fatalf("unexpected means: %+v", snap)
	}
	fs.Reset()
	if s := fs.Snapshot(); s.Ops != 0 || s.MaxHeld != 0 {
		t.Fatalf("Reset did not zero: %+v", s)
	}
}

func TestFootprintStatsConcurrent(t *testing.T) {
	tab := NewTable()
	var fs FootprintStats
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := NewHolder(tab)
			for i := 0; i < 50; i++ {
				id := base.PageID(w*1000 + i + 1) // page ids start at 1
				h.Lock(id)
				h.Unlock(id)
				fs.Record(h)
				h.Reset()
			}
		}(w)
	}
	wg.Wait()
	snap := fs.Snapshot()
	if snap.Ops != 200 || snap.Acquires != 200 || snap.MaxHeld != 1 {
		t.Fatalf("unexpected snapshot: %+v", snap)
	}
}

func TestRWTableSharedReaders(t *testing.T) {
	tab := NewRWTable()
	tab.RLock(5)
	done := make(chan struct{})
	go func() {
		tab.RLock(5) // shared with the other reader
		tab.RUnlock(5)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("second reader blocked")
	}
	tab.RUnlock(5)
}

func TestRWTableWriterExcludesReader(t *testing.T) {
	tab := NewRWTable()
	tab.Lock(5)
	acquired := make(chan struct{})
	go func() {
		tab.RLock(5)
		tab.RUnlock(5)
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("reader acquired while writer held")
	case <-time.After(50 * time.Millisecond):
	}
	tab.Unlock(5)
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("reader starved after writer release")
	}
}

func TestDetectorNoCycleOnCleanUse(t *testing.T) {
	d := NewDetector(NewTable())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := d.NewAgent()
			for i := 0; i < 100; i++ {
				// Parent-then-children order, as compression does.
				a.Lock(1)
				a.Lock(2)
				a.Lock(3)
				a.Unlock(3)
				a.Unlock(2)
				a.Unlock(1)
			}
		}()
	}
	wg.Wait()
	if d.Cycles() != 0 {
		t.Fatalf("clean ordered locking reported %d cycles", d.Cycles())
	}
}

func TestDetectorFindsCycle(t *testing.T) {
	d := NewDetector(NewTable())
	a1, a2 := d.NewAgent(), d.NewAgent()

	a1.Lock(1)
	a2.Lock(2)

	go func() { a1.Lock(2); a1.Unlock(2); a1.Unlock(1) }()
	// Give a1 time to block on page 2 so the wait edge is registered.
	time.Sleep(20 * time.Millisecond)
	go func() { a2.Lock(1); a2.Unlock(1); a2.Unlock(2) }()
	time.Sleep(50 * time.Millisecond)

	if d.Cycles() == 0 {
		t.Fatal("detector missed a genuine wait-for cycle")
	}
	// The two goroutines are genuinely deadlocked by construction; they
	// are deliberately abandoned (process exit reaps them). This is the
	// one test that must create a real cycle to validate the oracle.
}

// TestTableExclusionAcrossChunks: the table's directory holds mutexes in
// chunks that end at ids 64, 192, 448, 960, …; pages spread over five of
// them, locked by goroutines that reach each page for the first time at
// the same moment, each exclude per page and not across pages. The
// counters are plain ints, so -race fails the test if two holders of
// one page's lock overlap.
func TestTableExclusionAcrossChunks(t *testing.T) {
	tab := NewTable()
	pages := []base.PageID{1, 64, 65, 192, 193, 448, 449, 960, 961, 1500}
	counts := make([]int, len(pages))
	const workers, rounds = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(pages)
				tab.Lock(pages[i])
				counts[i]++
				tab.Unlock(pages[i])
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != workers*rounds {
		t.Fatalf("%d increments under the page locks, want %d: an update was lost", total, workers*rounds)
	}

	// A held page blocks a second locker of that page and no other page,
	// neighbours in its chunk included.
	tab.Lock(449)
	blocked := make(chan struct{})
	go func() { tab.Lock(449); tab.Unlock(449); close(blocked) }()
	for _, p := range []base.PageID{448, 450, 1, 961} {
		tab.Lock(p)
		tab.Unlock(p)
	}
	select {
	case <-blocked:
		t.Fatal("second Lock of a held page did not block")
	case <-time.After(20 * time.Millisecond):
	}
	tab.Unlock(449)
	<-blocked
}

// TestRWTableAcrossChunks is the same exclusion for the read/write
// table: writers exclude, readers of one page share.
func TestRWTableAcrossChunks(t *testing.T) {
	tab := NewRWTable()
	pages := []base.PageID{64, 65, 192, 193, 961}
	counts := make([]int, len(pages))
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 300; r++ {
				i := (w + r) % len(pages)
				if w%2 == 0 {
					tab.Lock(pages[i])
					counts[i]++
					tab.Unlock(pages[i])
				} else {
					tab.RLock(pages[i])
					_ = counts[i]
					tab.RUnlock(pages[i])
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 3*300 {
		t.Fatalf("%d increments under the write locks, want %d", total, 3*300)
	}
	tab.RLock(193)
	tab.RLock(193) // shared with the first reader
	tab.RUnlock(193)
	tab.RUnlock(193)
}

// TestZeroAllocTableLockUnlock: locking a page the table has seen is the
// page mutex's own Lock and Unlock, with nothing allocated; a page it
// has not seen costs at most the chunk that holds its mutex.
func TestZeroAllocTableLockUnlock(t *testing.T) {
	tab := NewTable()
	tab.Lock(5000)
	tab.Unlock(5000)
	id := base.PageID(1)
	if a := testing.AllocsPerRun(2000, func() {
		tab.Lock(id)
		tab.Unlock(id)
		id = id%5000 + 1
	}); a != 0 {
		t.Fatalf("Table.Lock+Unlock on a seen page allocates %v times", a)
	}
	h := NewHolder(tab)
	if a := testing.AllocsPerRun(2000, func() {
		h.Lock(id)
		h.Unlock(id)
		h.Reset()
		id = id%5000 + 1
	}); a != 0 {
		t.Fatalf("Holder.Lock+Unlock allocates %v times", a)
	}
}
