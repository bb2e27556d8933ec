package blink_test

import (
	"slices"
	"testing"

	"blinktree/internal/base"
	"blinktree/internal/blink"
	"blinktree/internal/compress"
	"blinktree/internal/locks"
	"blinktree/internal/node"
)

// parkingStore parks the scan that first reads page at: before handing
// that page over it runs step, one compression step, to completion. The
// compressor works on the store underneath, so its own reads never park.
type parkingStore struct {
	node.Store
	at    base.PageID
	step  func()
	fired bool
}

func (s *parkingStore) Get(id base.PageID) (*node.Node, error) {
	if id == s.at && s.step != nil && !s.fired {
		s.fired = true
		s.step()
	}
	return s.Store.Get(id)
}

// TestScanUnderCompression parks a scan between two adjacent leaves,
// runs one §5.4 compression step on them or their neighbours, and then
// lets the scan go on. Every key present throughout (compression moves
// pairs but never removes one) must come back exactly once, in order:
// for Range and Cursor, which hop right along links, and for
// ReverseCursor, which re-descends for each leaf to its left.
//
// The tree is one root over four full leaves of k = 2, keys 10..160 in
// steps of 10: L0 = 10..40, L1 = 50..80, L2 = 90..120, L3 = 130..160.
// Each case deletes keys to shape the leaves, queues one underfull
// leaf, and parks at the boundary between L[b] and L[b+1]: a forward
// scan after reading L[b], a reverse scan after reading L[b+1].
// "redistribute-left" is the case the scan's Low check exists for: the
// next leaf's first pairs move into the leaf just read, so a scan that
// read the next leaf without restarting would skip them.
func TestScanUnderCompression(t *testing.T) {
	cases := []struct {
		name    string
		deletes []base.Key
		offer   int // the leaf whose underfull event is compressed
		b       int // the scan parks between L[b] and L[b+1]
		merged  bool
	}{
		// L0 = {10} takes 50 and 60 from L1: pairs move left across a
		// forward cursor.
		{"redistribute-left", []base.Key{20, 30, 40}, 0, 0, false},
		// L3 = {130}, the rightmost child, takes 120 from L2: pairs move
		// right across a reverse cursor.
		{"redistribute-right", []base.Key{140, 150, 160}, 3, 2, false},
		// L0 = {10} absorbs L1 = {50, 60, 70}: the leaf after the boundary
		// is deleted and forwards through its outlink to the one before.
		{"merge-into-read", []base.Key{20, 30, 40, 80}, 0, 0, true},
		// L1 = {50} absorbs L2 = {90, 100, 110}: the leaf after the
		// boundary changes its range and link before it is read.
		{"merge-of-next", []base.Key{60, 70, 80, 120}, 1, 0, true},
	}
	scans := []struct {
		name    string
		reverse bool
		run     func(*blink.Tree) ([]base.Item, error)
	}{
		{"Range", false, func(tr *blink.Tree) ([]base.Item, error) {
			var got []base.Item
			err := tr.Range(0, base.Key(^uint64(0)), func(k base.Key, v base.Value) bool {
				got = append(got, base.Item{Key: k, Value: v})
				return true
			})
			return got, err
		}},
		{"Cursor", false, func(tr *blink.Tree) ([]base.Item, error) {
			var got []base.Item
			c := tr.NewCursor(0)
			for k, v, ok := c.Next(); ok; k, v, ok = c.Next() {
				got = append(got, base.Item{Key: k, Value: v})
			}
			return got, c.Err()
		}},
		{"ReverseCursor", true, func(tr *blink.Tree) ([]base.Item, error) {
			var got []base.Item
			c := tr.NewReverseCursor(base.Key(^uint64(0)))
			for k, v, ok := c.Next(); ok; k, v, ok = c.Next() {
				got = append(got, base.Item{Key: k, Value: v})
			}
			return got, c.Err()
		}},
	}
	for _, tc := range cases {
		for _, sc := range scans {
			t.Run(tc.name+"/"+sc.name, func(t *testing.T) {
				const k = 2
				inner := node.NewMemStore()
				ps := &parkingStore{Store: inner}
				lt := locks.NewTable()
				tr, err := blink.New(blink.Config{Store: ps, Locks: lt, MinPairs: k})
				if err != nil {
					t.Fatal(err)
				}
				next := base.Key(0)
				if err := tr.BulkLoad(func() (base.Key, base.Value, bool) {
					next += 10
					return next, base.Value(next) * 7, next <= 160
				}, 1.0); err != nil {
					t.Fatal(err)
				}
				leaves := leafChain(t, inner)
				if len(leaves) != 4 || tr.Height() != 2 {
					t.Fatalf("layout: %d leaves, height %d; want 4 under one root", len(leaves), tr.Height())
				}
				for _, d := range tc.deletes {
					if err := tr.Delete(d); err != nil {
						t.Fatal(err)
					}
				}
				var want []base.Item
				if err := tr.Range(0, base.Key(^uint64(0)), func(k base.Key, v base.Value) bool {
					want = append(want, base.Item{Key: k, Value: v})
					return true
				}); err != nil {
					t.Fatal(err)
				}

				comp := compress.NewCompressor(inner, lt, k, nil)
				off, err := inner.Get(leaves[tc.offer])
				if err != nil {
					t.Fatal(err)
				}
				comp.Queue().Offer(blink.UnderfullEvent{ID: off.ID, High: off.High}, false)
				ps.at = leaves[tc.b+1]
				if sc.reverse {
					ps.at = leaves[tc.b]
				}
				ps.step = func() {
					if err := comp.DrainOnce(); err != nil {
						t.Errorf("compression step: %v", err)
					}
				}

				got, err := sc.run(tr)
				if err != nil {
					t.Fatal(err)
				}
				if !ps.fired {
					t.Fatal("the scan never reached the parking point")
				}
				st := comp.Stats()
				if m, r := st.Merges.Load(), st.Redistributions.Load(); (m == 1) != tc.merged || m+r != 1 {
					t.Fatalf("compression did %d merges and %d redistributions; want one %s", m, r, map[bool]string{true: "merge", false: "redistribution"}[tc.merged])
				}
				if sc.reverse {
					slices.Reverse(want)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("scan emitted\n%v\nwant every present key exactly once, in order:\n%v", got, want)
				}
				if err := tr.Check(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// leafChain lists the leaf level left to right.
func leafChain(t *testing.T, st node.Store) []base.PageID {
	t.Helper()
	p, err := st.ReadPrime()
	if err != nil {
		t.Fatal(err)
	}
	var ids []base.PageID
	for id := p.Leftmost[0]; id != base.NilPage; {
		n, err := st.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		id = n.Link
	}
	return ids
}
