package node

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"blinktree/internal/base"
)

// The page directory's chunk c ends at id 64·(2^(c+1) − 1): 64, 192,
// 448, 960, 1984, 4032. boundaryIDs are the ids on both sides of each.
var boundaryIDs = func() (ids []base.PageID) {
	for _, end := range []base.PageID{64, 192, 448, 960, 1984, 4032} {
		ids = append(ids, end-1, end, end+1, end+2)
	}
	return ids
}()

func genLeaf(id base.PageID, gen uint64) *Node {
	return &Node{ID: id, Leaf: true, Low: base.NegInfBound(), High: base.PosInfBound(),
		Keys: []base.Key{base.Key(id), base.Key(gen)}, Vals: []base.Value{base.Value(id), base.Value(gen)}}
}

// TestMemStoreMissingPages: the nil id, an id past the end, an allocated
// page nothing was written to and a freed page all read as ErrCorrupt,
// before and after the directory has grown past them; so do a Put and a
// Free of a page that is not allocated.
func TestMemStoreMissingPages(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	corrupt := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, base.ErrCorrupt) {
			t.Fatalf("%s: %v, want ErrCorrupt", what, err)
		}
	}
	for round := 0; round < 2; round++ {
		_, err := s.Get(base.NilPage)
		corrupt("Get(0)", err)
		_, err = s.Get(base.PageID(s.Pages() + 1))
		corrupt("Get past the end", err)
		_, err = s.Get(^base.PageID(0))
		corrupt("Get(max id)", err)
		corrupt("Put past the end", s.Put(genLeaf(base.PageID(s.Pages()+1), 1)))
		corrupt("Free past the end", s.Free(base.PageID(s.Pages()+1)))
		corrupt("Free(0)", s.Free(base.NilPage))

		id, err := s.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Get(id)
		corrupt("Get of a page never written", err)
		if err := s.Put(genLeaf(id, 1)); err != nil {
			t.Fatal(err)
		}
		if n, err := s.Get(id); err != nil || n.Keys[1] != 1 {
			t.Fatalf("Get after Put: %v, %v", n, err)
		}
		if err := s.Free(id); err != nil {
			t.Fatal(err)
		}
		_, err = s.Get(id)
		corrupt("Get of a freed page", err)
		corrupt("Put to a freed page", s.Put(genLeaf(id, 2)))
		corrupt("second Free", s.Free(id))

		// A recycled id starts empty: the node of its previous life is gone.
		again, err := s.Allocate()
		if err != nil || again != id {
			t.Fatalf("Allocate after Free = %d, %v; want the recycled id %d", again, err, id)
		}
		_, err = s.Get(again)
		corrupt("Get of a recycled id before its first Put", err)

		for s.Pages() < 5000 { // grow over several chunks for the second round
			if _, err := s.Allocate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestMemStoreDirectoryUnderChurn: readers Get ids on both sides of the
// directory's chunk boundaries while another goroutine allocates past
// them, then frees and re-allocates those same ids. A reader gets a
// complete node of the page it asked for or ErrCorrupt, and never a
// node of a life the page had already ended when the Get began. Run
// under -race.
func TestMemStoreDirectoryUnderChurn(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	maxID := boundaryIDs[len(boundaryIDs)-1]
	// floor[id] is the youngest generation a Get of id may still return:
	// the writer raises it after the Free that ends the older one.
	floor := make([]atomic.Uint64, maxID+1)

	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				for _, id := range boundaryIDs {
					min := floor[id].Load()
					n, err := s.Get(id)
					if err != nil {
						if !errors.Is(err, base.ErrCorrupt) {
							t.Errorf("Get(%d): %v", id, err)
							return
						}
						continue
					}
					if n.ID != id || len(n.Keys) != 2 || len(n.Vals) != 2 ||
						n.Keys[0] != base.Key(id) || uint64(n.Keys[1]) != uint64(n.Vals[1]) {
						t.Errorf("Get(%d) returned a torn or foreign node: %v vals=%v", id, n, n.Vals)
						return
					}
					if gen := uint64(n.Keys[1]); gen < min {
						t.Errorf("Get(%d) returned generation %d of a page freed before the Get began (floor %d)", id, gen, min)
						return
					}
				}
			}
		}()
	}

	// Allocate past every boundary, writing each page as it appears.
	for {
		id, err := s.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(genLeaf(id, 1)); err != nil {
			t.Fatal(err)
		}
		if id == maxID {
			break
		}
	}
	// Recycle the boundary ids: free, raise the floor, allocate (the free
	// list hands the id back), write the next generation.
	for gen := uint64(2); gen <= 40; gen++ {
		for _, id := range boundaryIDs {
			if err := s.Free(id); err != nil {
				t.Fatal(err)
			}
			floor[id].Store(gen)
			got, err := s.Allocate()
			if err != nil || got != id {
				t.Fatalf("Allocate = %d, %v; want recycled id %d", got, err, id)
			}
			if err := s.Put(genLeaf(id, gen)); err != nil {
				t.Fatal(err)
			}
		}
	}
	done.Store(true)
	wg.Wait()
	if s.Pages() != int(maxID) {
		t.Fatalf("Pages = %d, want %d", s.Pages(), maxID)
	}
}

func TestZeroAllocMemStoreGet(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	var ids []base.PageID
	for i := 0; i < 1000; i++ {
		id, _ := s.Allocate()
		if err := s.Put(genLeaf(id, 1)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	i := 0
	if a := testing.AllocsPerRun(2000, func() {
		if _, err := s.Get(ids[i%len(ids)]); err != nil {
			t.Fatal(err)
		}
		i += 7
	}); a != 0 {
		t.Fatalf("MemStore.Get allocates %v times", a)
	}
}

// BenchmarkMemStoreGetParallel reads random pages of a store the size of
// the benchmark's tree from every P at once. Get writes no shared
// memory, so ns/op should fall as -cpu rises (run with -cpu 1,2,4).
func BenchmarkMemStoreGetParallel(b *testing.B) {
	s := NewMemStore()
	defer s.Close()
	const pages = 50_000
	for i := 0; i < pages; i++ {
		id, _ := s.Allocate()
		if err := s.Put(genLeaf(id, 1)); err != nil {
			b.Fatal(err)
		}
	}
	var seed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		x := seed.Add(1) * 0x9E3779B97F4A7C15
		for pb.Next() {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			if _, err := s.Get(base.PageID(1 + x%pages)); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
