// Package lehmanyao tests the Lehman–Yao baseline, which is the shared
// B-link tree run with blink.NewLehmanYao: a split node stays locked
// until its parent is held, and deletions never rebalance.
package lehmanyao

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"blinktree/internal/base"
	"blinktree/internal/blink"
	"blinktree/internal/node"
	"blinktree/internal/storage"
)

func TestBasics(t *testing.T) {
	tr, err := blink.NewLehmanYao(blink.Config{MinPairs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blink.NewLehmanYao(blink.Config{MinPairs: 1}); err == nil {
		t.Fatal("k=1 accepted")
	}
	if err := tr.Insert(7, 70); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(7, 71); !errors.Is(err, base.ErrDuplicate) {
		t.Fatal("dup accepted")
	}
	if v, err := tr.Search(7); err != nil || v != 70 {
		t.Fatalf("search = (%d,%v)", v, err)
	}
	if _, err := tr.Search(8); !errors.Is(err, base.ErrNotFound) {
		t.Fatal("ghost key")
	}
	if err := tr.Delete(7); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Fatalf("len = %d", tr.Len())
	}
	_ = tr.Close()
	if err := tr.Insert(1, 1); !errors.Is(err, base.ErrClosed) {
		t.Fatal("closed tree accepted insert")
	}
}

func TestBulkOrdersAndCheck(t *testing.T) {
	for _, name := range []string{"asc", "desc", "rand"} {
		t.Run(name, func(t *testing.T) {
			tr, err := blink.NewLehmanYao(blink.Config{MinPairs: 2})
			if err != nil {
				t.Fatal(err)
			}
			const n = 2000
			keys := make([]int, n)
			for i := range keys {
				keys[i] = i
			}
			switch name {
			case "desc":
				for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
					keys[i], keys[j] = keys[j], keys[i]
				}
			case "rand":
				rand.New(rand.NewSource(2)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			}
			for _, k := range keys {
				if err := tr.Insert(base.Key(k), base.Value(k)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.Check(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if v, err := tr.Search(base.Key(i)); err != nil || v != base.Value(i) {
					t.Fatalf("search(%d) = (%d,%v)", i, v, err)
				}
			}
		})
	}
}

// TestInsertFootprintBounded: the defining LY behaviour — at most three
// locks, and more than one whenever splits propagate.
func TestInsertFootprintBounded(t *testing.T) {
	tr, err := blink.NewLehmanYao(blink.Config{MinPairs: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 4000; i += 4 {
				if err := tr.Insert(base.Key(i), 0); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	fp := tr.Stats().InsertLocks
	if fp.MaxHeld < 2 || fp.MaxHeld > 3 {
		t.Fatalf("LY insert MaxHeld = %d, want 2..3", fp.MaxHeld)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentMixed(t *testing.T) {
	tr, err := blink.NewLehmanYao(blink.Config{MinPairs: 3})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2500; i++ {
				k := base.Key(rng.Intn(1000))
				switch rng.Intn(3) {
				case 0:
					if err := tr.Insert(k, base.Value(k)); err != nil && !errors.Is(err, base.ErrDuplicate) {
						t.Errorf("insert: %v", err)
						return
					}
				case 1:
					if err := tr.Delete(k); err != nil && !errors.Is(err, base.ErrNotFound) {
						t.Errorf("delete: %v", err)
						return
					}
				default:
					if v, err := tr.Search(k); err == nil && v != base.Value(k) {
						t.Errorf("foreign value %d", v)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestRangeScan(t *testing.T) {
	tr, err := blink.NewLehmanYao(blink.Config{MinPairs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i += 3 {
		_ = tr.Insert(base.Key(i), base.Value(i))
	}
	var got []base.Key
	if err := tr.Range(30, 60, func(k base.Key, v base.Value) bool {
		got = append(got, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 11 || got[0] != 30 || got[10] != 60 {
		t.Fatalf("scan = %v", got)
	}
	count := 0
	_ = tr.Range(0, 300, func(base.Key, base.Value) bool { count++; return false })
	if count != 1 {
		t.Fatal("early stop")
	}
}

func TestOnPagedStore(t *testing.T) {
	st, err := node.NewPagedStore(storage.NewMemStore(512))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := blink.NewLehmanYao(blink.Config{Store: st, MinPairs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := tr.Insert(base.Key(i*5), base.Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if v, err := tr.Search(base.Key(i * 5)); err != nil || v != base.Value(i) {
			t.Fatalf("paged search = (%d,%v)", v, err)
		}
	}
}
