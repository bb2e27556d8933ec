package blink

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"blinktree/internal/base"
	"blinktree/internal/node"
	"blinktree/internal/reclaim"
)

// loadedTree returns a tree with an epoch reclaimer, as the engine
// builds it, holding the even keys of [0, 2n).
func loadedTree(tb testing.TB, n int) *Tree {
	tb.Helper()
	st := node.NewMemStore()
	tr, err := New(Config{Store: st, Reclaimer: reclaim.New(st.Free)})
	if err != nil {
		tb.Fatal(err)
	}
	i := 0
	if err := tr.BulkLoad(func() (base.Key, base.Value, bool) {
		if i >= n {
			return 0, 0, false
		}
		i++
		return base.Key(2 * (i - 1)), base.Value(i), true
	}, 0.7); err != nil {
		tb.Fatal(err)
	}
	return tr
}

// TestZeroAllocSearch: a search — hit or miss — allocates nothing, with
// the epoch bracket and the scratch it records its stripe through.
func TestZeroAllocSearch(t *testing.T) {
	tr := loadedTree(t, 20_000)
	k := base.Key(0)
	if a := testing.AllocsPerRun(2000, func() {
		_, err := tr.Search(k)
		if hit := k%2 == 0; hit != (err == nil) || (!hit && !errors.Is(err, base.ErrNotFound)) {
			t.Fatalf("Search(%d): %v", k, err)
		}
		k = (k + 7919) % 40_000
	}); a != 0 {
		t.Fatalf("Search allocates %v times", a)
	}
}

// TestWriteAllocs pins what a leaf write allocates. An insertion that
// does not split and a deletion that leaves its leaf full enough pay 1:
// the new version of the leaf, header, keys and values in one block. An
// upsert of a present key stores its value into the leaf in place and
// pays nothing. The probe closure and the scratch cost nothing.
func TestWriteAllocs(t *testing.T) {
	tr := loadedTree(t, 20_000) // even keys of [0, 40000), leaves 70 % full
	// Strides wider than a leaf: no leaf is written twice, so none splits
	// or drops under k pairs.
	ins, del, up := base.Key(1), base.Key(2), base.Key(0)
	for _, c := range []struct {
		name string
		want float64
		op   func() error
	}{
		{"Insert", 1, func() error { ins += 2 * 97; return tr.Insert(ins, 1) }},
		{"Delete", 1, func() error { del += 2 * 97; return tr.Delete(del) }},
		{"Upsert", 0, func() error { up += 2 * 89; _, _, err := tr.Upsert(up, 5); return err }},
	} {
		if a := testing.AllocsPerRun(200, func() {
			if err := c.op(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}); a != c.want {
			t.Errorf("%s allocates %v times, want %v", c.name, a, c.want)
		}
	}
	if s := tr.Stats(); s.Splits != 0 {
		t.Fatalf("%d splits: the strides no longer avoid them", s.Splits)
	}
	mustCheck(t, tr)
}

// TestStripeLayout:a stripe is a whole number of cache lines with at
// least one line of padding at its end, so whatever the array's
// alignment, two stripes' counters never share a line.
func TestStripeLayout(t *testing.T) {
	var o opCounters
	size := unsafe.Sizeof(o)
	used := unsafe.Offsetof(o.condFP) + unsafe.Sizeof(o.condFP)
	if size%64 != 0 || size-used < 64 {
		t.Fatalf("opCounters is %d bytes, %d of them counters", size, used)
	}
}

// TestStripedCountersAddUp: operations finishing on many goroutines at
// once record on different stripes; Stats and Len are their sums, and
// the insertion footprint is still one lock per insertion.
func TestStripedCountersAddUp(t *testing.T) {
	tr := loadedTree(t, 1000)
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := base.Key(2*(w*per+i) + 1) // odd: absent
				if err := tr.Insert(k, 1); err != nil {
					t.Error(err)
					return
				}
				if _, err := tr.Search(k); err != nil {
					t.Error(err)
					return
				}
				if _, existed, err := tr.Upsert(k, 2); err != nil || !existed {
					t.Errorf("Upsert(%d): existed=%v, %v", k, existed, err)
					return
				}
				if i%2 == 0 {
					if err := tr.Delete(k); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := tr.Stats()
	if st.Inserts != workers*per || st.Searches != workers*per || st.Upserts != workers*per || st.Deletes != workers*per/2 {
		t.Fatalf("op counts: %+v", st)
	}
	if st.InsertLocks.Ops != workers*per || st.InsertLocks.MaxHeld != 1 || st.InsertLocks.MeanMaxHeld != 1 ||
		st.DeleteLocks.Ops != workers*per/2 || st.CondLocks.Ops != workers*per || st.CondLocks.MaxHeld != 1 {
		t.Fatalf("footprints: insert %+v delete %+v cond %+v", st.InsertLocks, st.DeleteLocks, st.CondLocks)
	}
	if want := 1000 + workers*per/2; tr.Len() != want {
		t.Fatalf("Len = %d, want %d", tr.Len(), want)
	}
	tr.ResetStats()
	if st := tr.Stats(); st.Inserts != 0 || st.InsertLocks.Ops != 0 || tr.Len() != 1000+workers*per/2 {
		t.Fatalf("ResetStats: %+v, Len %d (the pair count is state, not a statistic)", st, tr.Len())
	}
	mustCheck(t, tr)
}

// BenchmarkSearchParallel searches a 1M-key tree from every P at once.
// A search writes no memory another search reads, so ns/op should fall
// as -cpu rises (run with -cpu 1,2,4).
func BenchmarkSearchParallel(b *testing.B) {
	const keys = 1_000_000
	tr := loadedTree(b, keys)
	var seed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		x := seed.Add(1) * 0x9E3779B97F4A7C15
		for pb.Next() {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			if _, err := tr.Search(base.Key(x % (2 * keys))); err != nil && !errors.Is(err, base.ErrNotFound) {
				b.Error(err)
				return
			}
		}
	})
}
