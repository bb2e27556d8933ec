package compress

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"blinktree/internal/base"
	"blinktree/internal/blink"
	"blinktree/internal/locks"
	"blinktree/internal/node"
	"blinktree/internal/reclaim"
)

// newCompressedTree wires a tree to a queue compressor (§5.4 mode 2).
func newCompressedTree(t *testing.T, k int) (*blink.Tree, *Compressor) {
	t.Helper()
	st := node.NewMemStore()
	lt := locks.NewTable()
	rec := reclaim.New(st.Free)
	tr, err := blink.New(blink.Config{Store: st, Locks: lt, MinPairs: k, Reclaimer: rec})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompressor(st, lt, k, rec)
	c.Attach(tr)
	return tr, c
}

func TestCompressorDrainRestoresOccupancy(t *testing.T) {
	const k, n = 3, 2000
	tr, c := newCompressedTree(t, k)
	for i := 0; i < n; i++ {
		if err := tr.Insert(base.Key(i), base.Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if i%10 != 0 {
			if err := tr.Delete(base.Key(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c.Queue().Len() == 0 {
		t.Fatal("precondition: deletions enqueued nothing")
	}
	if err := c.DrainOnce(); err != nil {
		t.Fatalf("DrainOnce: %v", err)
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("post-drain invariants: %v", err)
	}
	occ, err := tr.OccupancyStats()
	if err != nil {
		t.Fatal(err)
	}
	// Queue compression fixes exactly the nodes deletions flagged, so
	// occupancy must improve dramatically (a few stragglers whose
	// neighbours were compressed first may remain).
	if occ.Underfull > occ.Nodes/4 {
		t.Fatalf("still %d/%d underfull after drain", occ.Underfull, occ.Nodes)
	}
	if c.Stats().Merges.Load() == 0 {
		t.Fatal("no merges recorded")
	}
	// §5.3's phase order: compression only retires the pages it merged
	// away; they are freed by the next Collect, not before.
	if rs := c.rec.Stats(); rs.Freed != 0 || rs.Limbo == 0 {
		t.Fatalf("after drain, before collect: %+v, want Freed 0 and Limbo > 0", rs)
	}
	if _, err := c.CollectGarbage(); err != nil {
		t.Fatal(err)
	}
	if rs := c.rec.Stats(); rs.Limbo != 0 || rs.Freed != rs.Retired {
		t.Fatalf("after collect: %+v, want Limbo 0 and Freed == Retired", rs)
	}
	for i := 0; i < n; i += 10 {
		if v, err := tr.Search(base.Key(i)); err != nil || v != base.Value(i) {
			t.Fatalf("survivor %d: (%d,%v)", i, v, err)
		}
	}
}

func TestCompressorThreeLockMaximum(t *testing.T) {
	const k, n = 2, 1000
	tr, c := newCompressedTree(t, k)
	for i := 0; i < n; i++ {
		_ = tr.Insert(base.Key(i), base.Value(i))
	}
	for i := 0; i < n; i++ {
		if i%4 != 0 {
			_ = tr.Delete(base.Key(i))
		}
	}
	if err := c.DrainOnce(); err != nil {
		t.Fatal(err)
	}
	fp := c.Stats().Footprint.Snapshot()
	if fp.MaxHeld > 3 {
		t.Fatalf("queue compression held %d locks, max is 3", fp.MaxHeld)
	}
}

func TestCompressorRootCollapseViaQueue(t *testing.T) {
	const k, n = 2, 2000
	tr, c := newCompressedTree(t, k)
	for i := 0; i < n; i++ {
		_ = tr.Insert(base.Key(i), base.Value(i))
	}
	hBefore := tr.Height()
	for i := 0; i < n; i++ {
		if i != 500 && i != 1500 {
			_ = tr.Delete(base.Key(i))
		}
	}
	// Several drains: each level of slack needs its own enqueue round.
	for r := 0; r < 12; r++ {
		if err := c.DrainOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() >= hBefore {
		t.Fatalf("height did not shrink: %d -> %d", hBefore, tr.Height())
	}
	if c.Stats().RootCollapses.Load() == 0 {
		t.Fatal("no root collapse recorded")
	}
	for _, want := range []base.Key{500, 1500} {
		if v, err := tr.Search(want); err != nil || v != base.Value(want) {
			t.Fatalf("survivor %d: (%d,%v)", want, v, err)
		}
	}
}

// TestCompressorConcurrentWithTraffic is the Theorem 2 scenario: any
// number of searches, insertions, deletions and compressions running
// together, with background workers draining the shared queue. The
// second shape is the adversarial one: minimal nodes, so nearly every
// delete queues a compression, and more writers and compressors than Ps.
func TestCompressorConcurrentWithTraffic(t *testing.T) {
	for _, c := range []struct{ k, compressors, churners int }{{3, 3, 3}, {2, 4, 8}} {
		t.Run(fmt.Sprintf("k=%d/compressors=%d/churners=%d", c.k, c.compressors, c.churners), func(t *testing.T) {
			compressorUnderTraffic(t, c.k, c.compressors, c.churners)
		})
	}
}

func compressorUnderTraffic(t *testing.T, k, compressors, churners int) {
	tr, c := newCompressedTree(t, k)
	const n = 3000
	for i := 0; i < n; i++ {
		if err := tr.Insert(base.Key(i*2), base.Value(i*2)); err != nil {
			t.Fatal(err)
		}
	}
	c.Start(compressors) // §5.4 mode 2

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Churners: delete and reinsert odd keys.
	for w := 0; w < churners; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 4000; i++ {
				key := base.Key(rng.Intn(n)*2 + 1)
				if rng.Intn(2) == 0 {
					err := tr.Insert(key, base.Value(key))
					if err != nil && !errors.Is(err, base.ErrDuplicate) {
						t.Errorf("insert: %v", err)
						return
					}
				} else {
					err := tr.Delete(key)
					if err != nil && !errors.Is(err, base.ErrNotFound) {
						t.Errorf("delete: %v", err)
						return
					}
				}
			}
		}(w)
	}
	// Deleters: remove even keys to generate underfull leaves.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if i%5 != 0 {
				if err := tr.Delete(base.Key(i * 2)); err != nil {
					t.Errorf("delete even %d: %v", i*2, err)
					return
				}
			}
		}
	}()
	// Readers: stable keys (multiples of 10 in the even space) must
	// always be found with correct values.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(n/5) * 5
				key := base.Key(i * 2)
				v, err := tr.Search(key)
				if err != nil || v != base.Value(key) {
					t.Errorf("stable key %d: (%d,%v)", key, v, err)
					return
				}
			}
		}(r)
	}
	// Garbage collector ticks.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				if _, err := c.CollectGarbage(); err != nil {
					t.Errorf("collect: %v", err)
					return
				}
			}
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	c.Stop()
	// Settle: drain whatever remains, then verify invariants.
	if err := c.DrainOnce(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CollectGarbage(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("invariants after concurrent compression: %v", err)
	}
	// Stable keys all present.
	for i := 0; i < n; i += 5 {
		key := base.Key(i * 2)
		if v, err := tr.Search(key); err != nil || v != base.Value(key) {
			t.Fatalf("stable key %d after settle: (%d,%v)", key, v, err)
		}
	}
	fp := c.Stats().Footprint.Snapshot()
	if fp.MaxHeld > 3 {
		t.Fatalf("compressor exceeded 3 locks: %+v", fp)
	}
	st := tr.Stats()
	if st.InsertLocks.MaxHeld > 1 || st.DeleteLocks.MaxHeld > 1 {
		t.Fatalf("tree ops exceeded 1 lock: %+v", st)
	}
}

// TestCompressorDiscardStaleEntry: an entry whose node was split after
// being queued (high value changed) is discarded, not endlessly
// requeued (§5.4's "does not have to consider A" rule).
func TestCompressorDiscardStaleEntry(t *testing.T) {
	const k = 3
	tr, c := newCompressedTree(t, k)
	for i := 0; i < 200; i++ {
		_ = tr.Insert(base.Key(i), base.Value(i))
	}
	// Make a leaf underfull, capture the queue entry, then refill the
	// leaf region so its shape changes before the compressor runs.
	for i := 10; i < 14; i++ {
		_ = tr.Delete(base.Key(i))
	}
	for i := 10; i < 14; i++ {
		_ = tr.Insert(base.Key(i), base.Value(i))
	}
	if err := c.DrainOnce(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	// Either skipped (not underfull anymore) or discarded; never an
	// error, and all data intact.
	for i := 0; i < 200; i++ {
		if v, err := tr.Search(base.Key(i)); err != nil || v != base.Value(i) {
			t.Fatalf("key %d: (%d,%v)", i, v, err)
		}
	}
}

// TestCompressorStartStop: workers start, process, and shut down
// cleanly even when idle.
func TestCompressorStartStop(t *testing.T) {
	tr, c := newCompressedTree(t, 2)
	c.Start(2)
	for i := 0; i < 500; i++ {
		_ = tr.Insert(base.Key(i), 0)
	}
	for i := 0; i < 500; i += 2 {
		_ = tr.Delete(base.Key(i))
	}
	deadline := time.Now().Add(2 * time.Second)
	for c.Queue().Len() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	c.Stop()
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestScannerAndQueueCompressorConcurrently: both compression styles at
// once — the paper allows any number of compression processes.
func TestScannerAndQueueCompressorConcurrently(t *testing.T) {
	const k, n = 2, 1500
	st := node.NewMemStore()
	lt := locks.NewTable()
	tr, err := blink.New(blink.Config{Store: st, Locks: lt, MinPairs: k})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompressor(st, lt, k, nil)
	c.Attach(tr)
	for i := 0; i < n; i++ {
		_ = tr.Insert(base.Key(i), base.Value(i))
	}
	c.Start(2)
	s := NewScanner(st, lt, k, nil)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for pass := 0; pass < 3; pass++ {
			if err := s.CompressAll(); err != nil {
				t.Errorf("scanner: %v", err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		if i%8 != 0 {
			if err := tr.Delete(base.Key(i)); err != nil {
				t.Fatalf("delete: %v", err)
			}
		}
	}
	wg.Wait()
	c.Stop()
	if err := c.DrainOnce(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	for i := 0; i < n; i += 8 {
		if v, err := tr.Search(base.Key(i)); err != nil || v != base.Value(i) {
			t.Fatalf("survivor %d: (%d,%v)", i, v, err)
		}
	}
}
