package blink

import (
	"math/rand"
	"sync"
	"testing"

	"blinktree/internal/base"
	"blinktree/internal/node"
	"blinktree/internal/storage"
)

// protocols are the two upward phases a Tree runs over the same nodes:
// Sagiv's, which releases a split node before locking its parent, and
// Lehman–Yao's, which keeps it locked until it holds the parent.
var protocols = []struct {
	name string
	make func(Config) (*Tree, error)
	// split is the most locks an update that splits holds when no other
	// update runs: the split node alone, or it and its parent.
	split uint64
}{{"sagiv", New, 1}, {"lehmanyao", NewLehmanYao, 2}}

// TestProtocolInsertOrders builds each protocol over each store from
// ascending, descending and random inserts, then checks every invariant
// and finds every key. Run alone, an insertion's stacked parent is
// never stale, so a Lehman–Yao split holds exactly child + parent.
func TestProtocolInsertOrders(t *testing.T) {
	stores := []struct {
		name string
		make func(*testing.T) node.Store
	}{
		{"mem", func(*testing.T) node.Store { return node.NewMemStore() }},
		{"paged", func(t *testing.T) node.Store {
			ps, err := node.NewPagedStore(storage.NewMemStore(512))
			if err != nil {
				t.Fatal(err)
			}
			return ps
		}},
	}
	const n = 2000
	for _, p := range protocols {
		if _, err := p.make(Config{MinPairs: 1}); err == nil {
			t.Fatalf("%s accepted MinPairs 1", p.name)
		}
		for _, s := range stores {
			for _, order := range []string{"asc", "desc", "rand"} {
				t.Run(p.name+"/"+s.name+"/"+order, func(t *testing.T) {
					tr, err := p.make(Config{Store: s.make(t), MinPairs: 4})
					if err != nil {
						t.Fatal(err)
					}
					keys := make([]base.Key, n)
					for i := range keys {
						keys[i] = base.Key(i)
					}
					switch order {
					case "desc":
						for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
							keys[i], keys[j] = keys[j], keys[i]
						}
					case "rand":
						rand.New(rand.NewSource(2)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
					}
					for _, k := range keys {
						if err := tr.Insert(k, base.Value(k)*3); err != nil {
							t.Fatal(err)
						}
					}
					mustCheck(t, tr)
					for k := base.Key(0); k < n; k++ {
						if v, err := tr.Search(k); err != nil || v != base.Value(k)*3 {
							t.Fatalf("Search(%d) = (%d, %v)", k, v, err)
						}
					}
					if got := tr.Stats().InsertLocks.MaxHeld; got != p.split {
						t.Fatalf("insert MaxHeld = %d, want %d", got, p.split)
					}
				})
			}
		}
	}
}

// TestLehmanYaoCondFootprint is TestLockFootprintSeparation for the
// conditional writes: an upsert of a new key that splits its leaf
// propagates like an insertion, so under Lehman–Yao it holds the leaf
// while it locks the parent (2, or 3 while moving right there), and
// under Sagiv it never holds more than the one lock.
func TestLehmanYaoCondFootprint(t *testing.T) {
	for _, p := range protocols {
		// One upsert at a time first: one whose only split is its leaf's
		// (the parent has room) holds the leaf, as condStep leaves it,
		// while it locks the parent. A split further up would hold 2
		// under Lehman–Yao whatever condStep did, so those are skipped.
		seq, err := p.make(Config{MinPairs: 2})
		if err != nil {
			t.Fatal(err)
		}
		leafOnly := 0
		for i := 0; i < 500; i++ {
			seq.ResetStats()
			if _, _, err := seq.Upsert(base.Key(i*7919%500), 0); err != nil {
				t.Fatal(err)
			}
			if s := seq.Stats(); s.Splits == 1 && s.RootSplits == 0 {
				leafOnly++
				if s.CondLocks.MaxHeld != p.split {
					t.Fatalf("%s: an upsert that split one leaf held %d locks, want %d", p.name, s.CondLocks.MaxHeld, p.split)
				}
			}
		}
		if leafOnly == 0 {
			t.Fatalf("%s: no upsert split only its leaf", p.name)
		}

		tr, err := p.make(Config{MinPairs: 2})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < 4000; i += 4 {
					if _, existed, err := tr.Upsert(base.Key(i), base.Value(i)); err != nil || existed {
						t.Errorf("%s Upsert(%d) = existed %v, %v", p.name, i, existed, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		mustCheck(t, tr)
		got := tr.Stats().CondLocks.MaxHeld
		if p.name == "sagiv" && got != 1 {
			t.Errorf("sagiv upsert MaxHeld = %d, want exactly 1", got)
		}
		if p.name == "lehmanyao" && (got < 2 || got > 3) {
			t.Errorf("lehman-yao upsert MaxHeld = %d, want 2..3", got)
		}
	}
}
