package pagedir

import (
	"sync"
	"sync/atomic"
	"testing"

	"blinktree/internal/base"
)

// chunkEnd returns the last id of chunk c: chunks hold first<<c slots.
func chunkEnd(c int) base.PageID { return base.PageID(first*(1<<(c+1)) - first) }

func TestEmptyAndNilPage(t *testing.T) {
	var d Dir[int]
	for _, id := range []base.PageID{0, 1, 64, 1 << 20, ^base.PageID(0)} {
		if d.At(id) != nil {
			t.Fatalf("empty directory has a slot for id %d", id)
		}
	}
	d.Ensure(1)
	if d.At(base.NilPage) != nil {
		t.Fatal("the nil page id has a slot")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Ensure(NilPage) did not panic")
		}
	}()
	d.Ensure(base.NilPage)
}

// TestGrowthIsGeometricAndLazy: Ensure(id) publishes whole chunks, at
// most twice the slots asked for, and nothing before it is asked.
func TestGrowthIsGeometricAndLazy(t *testing.T) {
	var d Dir[uint64]
	for c := 0; c < 8; c++ {
		if d.At(chunkEnd(c-1)+1) != nil {
			t.Fatalf("chunk %d exists before any of its ids was asked for", c)
		}
		d.Ensure(chunkEnd(c-1) + 1) // first id of chunk c
		if d.At(chunkEnd(c)) == nil || d.At(chunkEnd(c)+1) != nil {
			t.Fatalf("chunk %d: slots do not end at id %d", c, chunkEnd(c))
		}
	}
	var far Dir[uint64]
	far.Ensure(100_000)
	if far.At(1) == nil || far.At(100_000) == nil || far.At(200_000+first) != nil {
		t.Fatal("Ensure(100000) did not grow to between 100000 and 200064 slots")
	}
}

// TestSlotsAreDistinctAndStable: every id has its own slot, and growth
// moves none of them.
func TestSlotsAreDistinctAndStable(t *testing.T) {
	var d Dir[base.PageID]
	const n = 5000
	addr := make([]*base.PageID, n+1)
	for id := base.PageID(1); id <= n; id++ {
		p := d.Ensure(id)
		if *p != 0 {
			t.Fatalf("slot of id %d starts as %d: shared with another id", id, *p)
		}
		*p = id
		addr[id] = p
	}
	d.Ensure(1 << 20)
	for id := base.PageID(1); id <= n; id++ {
		if p := d.At(id); p != addr[id] || *p != id {
			t.Fatalf("slot of id %d moved or changed: %p (%d), was %p", id, p, *p, addr[id])
		}
	}
}

// TestConcurrentAtWhileGrowing: readers index ids on both sides of the
// chunk boundaries while a writer grows the directory past them. A
// reader sees nil or the slot; once it has seen the slot's value it
// never sees less. Run under -race.
func TestConcurrentAtWhileGrowing(t *testing.T) {
	var d Dir[atomic.Uint64]
	const last = 70_000 // ten chunk boundaries
	var probes []base.PageID
	for c := 0; chunkEnd(c) < last; c++ {
		probes = append(probes, chunkEnd(c)-1, chunkEnd(c), chunkEnd(c)+1, chunkEnd(c)+2)
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := make([]bool, len(probes))
			for !done.Load() {
				for i, id := range probes {
					p := d.At(id)
					switch {
					case p == nil && seen[i]:
						t.Errorf("slot of id %d vanished", id)
						return
					case p != nil:
						if v := p.Load(); v != 0 && v != uint64(id) {
							t.Errorf("slot of id %d holds %d", id, v)
							return
						} else if v != 0 {
							seen[i] = true
						}
					}
				}
			}
		}()
	}
	for id := base.PageID(1); id <= last; id++ {
		d.Ensure(id).Store(uint64(id))
	}
	done.Store(true)
	wg.Wait()
}

// TestConcurrentEnsure: racing growers agree on one slot per id.
func TestConcurrentEnsure(t *testing.T) {
	var d Dir[atomic.Uint64]
	const workers, ids = 4, 3000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := base.PageID(ids); id >= 1; id-- {
				d.Ensure(id).Add(1)
			}
		}()
	}
	wg.Wait()
	for id := base.PageID(1); id <= ids; id++ {
		if got := d.At(id).Load(); got != workers {
			t.Fatalf("id %d: %d of %d increments landed on its slot", id, got, workers)
		}
	}
}

func TestZeroAllocAt(t *testing.T) {
	var d Dir[uint64]
	d.Ensure(10_000)
	var sink *uint64
	if a := testing.AllocsPerRun(1000, func() {
		sink = d.At(777)
		sink = d.Ensure(9_999)
	}); a != 0 {
		t.Fatalf("At+Ensure of present ids allocate %v times", a)
	}
	_ = sink
}
