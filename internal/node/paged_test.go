package node

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blinktree/internal/base"
	"blinktree/internal/storage"
)

// newPooledStore returns a PagedStore over a pool of frames frames on an
// in-memory page store, with pages pages allocated and written as
// generation 1.
func newPooledStore(tb testing.TB, frames, pages int) (*PagedStore, []base.PageID) {
	tb.Helper()
	s, err := NewPagedStore(storage.NewBufferPool(storage.NewMemStore(storage.DefaultPageSize), frames))
	if err != nil {
		tb.Fatal(err)
	}
	ids := make([]base.PageID, pages)
	for i := range ids {
		if ids[i], err = s.Allocate(); err != nil {
			tb.Fatal(err)
		}
		if err := s.Put(genLeaf(ids[i], 1)); err != nil {
			tb.Fatal(err)
		}
	}
	return s, ids
}

// TestPagedStoreChurnThroughEviction: 64 pages share 8 frames, so nearly
// every Get evicts and every frame is recycled from page to page while
// writers Put rising generations of their own pages. Whatever path a Get
// takes — the cached node of an unpinned frame, a pin, a fault-in, a
// wait on another goroutine's fault-in — it returns a complete node of
// the page it asked for, of a generation no older than the last one the
// same reader saw (nor, for a page's own writer, than the one it last
// Put). Run under -race.
//
// Mutation-checked: without the Node.ID check on the pinless path it
// fails every time (a node of another page). Gets here almost never pin
// a frame that is already resident, so the other half of the protocol,
// the frame.id re-validation after Pin's increment, has its own churn
// test on the raw pool (internal/storage); see CHANGES.md.
func TestPagedStoreChurnThroughEviction(t *testing.T) {
	const (
		frames  = 8
		pages   = 64
		writers = 4
		readers = 4
		rounds  = 4000
	)
	s, ids := newPooledStore(t, frames, pages)
	check := func(who string, id base.PageID, n *Node, min uint64) (uint64, bool) {
		if n.ID != id || !n.Leaf || len(n.Keys) != 2 || len(n.Vals) != 2 ||
			n.Keys[0] != base.Key(id) || n.Vals[0] != base.Value(id) || uint64(n.Keys[1]) != uint64(n.Vals[1]) {
			t.Errorf("%s: Get(%d) returned a torn or foreign node: %v vals=%v", who, id, n, n.Vals)
			return 0, false
		}
		gen := uint64(n.Keys[1])
		if gen < min {
			t.Errorf("%s: Get(%d) went back from generation %d to %d", who, id, min, gen)
			return 0, false
		}
		return gen, true
	}
	var done atomic.Bool
	var rwg, wwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			rng := rand.New(rand.NewPCG(uint64(r), 7))
			seen := make([]uint64, pages)
			for !done.Load() {
				i := rng.IntN(pages)
				n, err := s.Get(ids[i])
				if err != nil {
					t.Errorf("reader: Get(%d): %v", ids[i], err)
					return
				}
				gen, ok := check("reader", ids[i], n, seen[i])
				if !ok {
					return
				}
				seen[i] = gen
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 11))
			per := pages / writers
			mine := ids[w*per : (w+1)*per]
			gen := make([]uint64, per)
			for i := range gen {
				gen[i] = 1
			}
			for r := 0; r < rounds; r++ {
				i := rng.IntN(per)
				gen[i]++
				if err := s.Put(genLeaf(mine[i], gen[i])); err != nil {
					t.Errorf("writer: Put(%d): %v", mine[i], err)
					return
				}
				j := rng.IntN(per)
				n, err := s.Get(mine[j])
				if err != nil {
					t.Errorf("writer: Get(%d): %v", mine[j], err)
					return
				}
				if got, ok := check("writer", mine[j], n, gen[j]); !ok {
					return
				} else if got != gen[j] {
					t.Errorf("writer: Get(%d) returned generation %d, its only writer wrote %d", mine[j], got, gen[j])
					return
				}
			}
		}(w)
	}
	wwg.Wait()
	done.Store(true)
	rwg.Wait()
	st := s.Pool().Stats()
	if st.Evictions == 0 || st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("no churn, the test is vacuous: %+v", st)
	}
	if st.Pinned != 0 {
		t.Fatalf("pins outstanding at rest: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestZeroAllocPagedGetHit: a Get served by a resident frame's cached
// node allocates nothing.
func TestZeroAllocPagedGetHit(t *testing.T) {
	s, ids := newPooledStore(t, 256, 100)
	defer s.Close()
	i := 0
	if a := testing.AllocsPerRun(2000, func() {
		if _, err := s.Get(ids[i%len(ids)]); err != nil {
			t.Fatal(err)
		}
		i += 7
	}); a != 0 {
		t.Fatalf("PagedStore.Get of a resident page allocates %v times", a)
	}
}

// TestAllocPagedGetMiss: a Get that faults its page in allocates the
// decoded node, one block, and nothing else — no frame, no page buffer,
// no box around the cached node.
func TestAllocPagedGetMiss(t *testing.T) {
	s, ids := newPooledStore(t, 8, 64)
	defer s.Close()
	before := s.Pool().Stats()
	i := 0
	const runs = 1000
	a := testing.AllocsPerRun(runs, func() {
		if _, err := s.Get(ids[i%len(ids)]); err != nil { // 64 pages round-robin over 8 frames: every Get misses
			t.Fatal(err)
		}
		i++
	})
	if after := s.Pool().Stats(); after.Misses-before.Misses < runs {
		t.Fatalf("only %d of %d Gets missed; the test is vacuous", after.Misses-before.Misses, runs)
	}
	if a > 1 {
		t.Fatalf("PagedStore.Get of a non-resident page allocates %v times, want ≤ 1", a)
	}
}

// TestPagedSetValueOrder pins the order of an in-place store over a
// pool. The writer holds a version n of a page whose frame was recycled
// and refilled since, so the frame caches another decode of the page. A
// reader holds the frame's latch shared, which stops SetValue at the
// latch. Meanwhile no one may see the new value through n while Get
// serves the old. Once SetValue returns, Get serves the new value, and
// so does a fault-in after an eviction.
//
// Mutation-checked: storing the word before installing n on the frame
// fails the first check every run; encoding the page before the store
// (no re-encode) fails the last.
func TestPagedSetValueOrder(t *testing.T) {
	s, ids := newPooledStore(t, 4, 16)
	defer s.Close()
	id := ids[0]
	evict := func() {
		for i := 0; s.Pool().Peek(id) != nil; i++ {
			if i == 1000 {
				t.Fatalf("page %d never left the pool", id)
			}
			if _, err := s.Get(ids[1+i%(len(ids)-1)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	get := func() *Node {
		n, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	n := get() // the writer's version
	evict()
	if get() == n {
		t.Fatal("the fault-in did not decode a new node")
	}

	fr, err := s.Pool().Pin(id)
	if err != nil {
		t.Fatal(err)
	}
	fr.RLock()
	done := make(chan error, 1)
	go func() { done <- s.SetValue(n, 1, 7) }()
	stale := false
	for end := time.Now().Add(50 * time.Millisecond); !stale && time.Now().Before(end); runtime.Gosched() {
		stale = n.Val(1) == 7 && get().Val(1) != 7
	}
	fr.RUnlock()
	s.Pool().Unpin(fr)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if stale {
		t.Fatal("the new value was visible through the writer's node while Get served the old one")
	}
	if got := get(); got != n || got.Val(1) != 7 {
		t.Fatalf("after SetValue Get returns %v vals=%v, want the writer's node with value 7", got, got.Vals)
	}
	evict()
	if got := get(); got.Val(1) != 7 {
		t.Fatalf("after an eviction the page holds value %d, want 7", got.Val(1))
	}
}

// BenchmarkPagedGetParallel reads random resident pages through the
// pool from every P at once. A hit takes no lock and pins nothing, so
// ns/op should not rise with -cpu (run with -cpu 1,2,4).
func BenchmarkPagedGetParallel(b *testing.B) {
	const pages = 8192
	s, ids := newPooledStore(b, 2*pages, pages)
	defer s.Close()
	var seed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		x := seed.Add(1) * 0x9E3779B97F4A7C15
		for pb.Next() {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			if _, err := s.Get(ids[x%pages]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
