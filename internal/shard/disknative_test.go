package shard

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"blinktree/internal/base"
)

// TestDiskNativePropertyTinyPool is the eviction-under-traversal
// regression test for the pin/epoch gate: randomized concurrent
// Search/Insert/Delete/Upsert against an engine whose buffer pool
// holds only 8 frames — every operation's traversal races eviction and
// frame reuse — checked against a differential in-memory oracle. Run
// with -race this is also the data-race probe for the pooled node
// path. The single-threaded counterpart lives in internal/blink.
func TestDiskNativePropertyTinyPool(t *testing.T) {
	const (
		workers = 4
		readers = 2
		keysPer = 300
		opsPer  = 3000
		frames  = 8
		pageSz  = 256
	)
	e, err := OpenEngine(Options{
		MinPairs:   2,
		PageSize:   pageSz,
		DiskNative: true,
		CacheBytes: frames * pageSz,
	})
	if err != nil {
		t.Fatal(err)
	}

	type state struct {
		val     base.Value
		present bool
	}
	// Each mutator owns a disjoint key slice and is the only writer of
	// its oracle map; the final verifier reads the maps after the join,
	// so no lock is needed around them.
	oracle := make([]map[uint64]state, workers)

	var mwg, wg sync.WaitGroup
	stop := make(chan struct{})
	// Mutators: disjoint key slices, so each worker's per-key history is
	// sequential and its oracle is exact, including read-your-writes.
	for w := 0; w < workers; w++ {
		oracle[w] = make(map[uint64]state)
		mwg.Add(1)
		go func(w int) {
			defer mwg.Done()
			rng := rand.New(rand.NewSource(int64(w)*104729 + 1))
			mine := oracle[w]
			for i := 0; i < opsPer; i++ {
				raw := uint64(w*keysPer) + uint64(rng.Intn(keysPer))
				k := base.Key(raw)
				cur := mine[raw]
				switch {
				case cur.present && rng.Intn(4) == 0:
					if err := e.Delete(k); err != nil {
						t.Errorf("worker %d: delete %d: %v", w, raw, err)
						return
					}
					mine[raw] = state{}
				case rng.Intn(3) == 0:
					v, err := e.Tree.Search(k)
					if cur.present && (err != nil || v != cur.val) {
						t.Errorf("worker %d: search %d: got (%d,%v), oracle %d", w, raw, v, err, cur.val)
						return
					}
					if !cur.present && !errors.Is(err, base.ErrNotFound) {
						t.Errorf("worker %d: search %d: got (%d,%v), oracle absent", w, raw, v, err)
						return
					}
				default:
					next := base.Value(rng.Uint64() | 1)
					if _, _, err := e.Upsert(k, next); err != nil {
						t.Errorf("worker %d: upsert %d: %v", w, raw, err)
						return
					}
					mine[raw] = state{val: next, present: true}
				}
			}
		}(w)
	}
	// Readers: point lookups and ordered scans over everyone's keys.
	// Values race the mutators so only structure is checked — no error
	// but NotFound, and scans must stay strictly ascending.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)*7907 + 5))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if rng.Intn(8) == 0 {
					last := int64(-1)
					lo := base.Key(rng.Intn(workers * keysPer))
					err := e.Tree.Range(lo, lo+40, func(k base.Key, _ base.Value) bool {
						if int64(k) <= last {
							t.Errorf("scan not ascending: %d after %d", k, last)
							return false
						}
						last = int64(k)
						return true
					})
					if err != nil {
						t.Errorf("reader %d: range: %v", r, err)
						return
					}
					continue
				}
				k := base.Key(rng.Intn(workers * keysPer))
				if _, err := e.Tree.Search(k); err != nil && !errors.Is(err, base.ErrNotFound) {
					t.Errorf("reader %d: search %d: %v", r, k, err)
					return
				}
			}
		}(r)
	}
	// Reclamation keeps running so retired pages get freed (and their
	// frames dropped) while traversals are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := e.CollectGarbage(); err != nil {
					t.Errorf("collect: %v", err)
					return
				}
			}
		}
	}()

	// Mutators run a fixed op budget; when they finish, release the
	// readers and the collector.
	mwg.Wait()
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Settle, then verify the full oracle exactly and scan for phantoms.
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		for raw, want := range oracle[w] {
			v, err := e.Tree.Search(base.Key(raw))
			got := state{val: v, present: err == nil}
			if err != nil && !errors.Is(err, base.ErrNotFound) {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("key %d: recovered %+v, oracle %+v", raw, got, want)
			}
		}
	}
	total := 0
	err = e.Tree.Range(0, base.Key(^uint64(0)), func(k base.Key, v base.Value) bool {
		raw := uint64(k)
		w := int(raw) / keysPer
		if w < 0 || w >= workers {
			t.Fatalf("phantom key %d", raw)
		}
		if want := oracle[w][raw]; !want.present || want.val != v {
			t.Fatalf("key %d: scan sees %d, oracle %+v", raw, v, want)
		}
		total++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	live := 0
	for w := 0; w < workers; w++ {
		for _, s := range oracle[w] {
			if s.present {
				live++
			}
		}
	}
	if total != live {
		t.Fatalf("scan found %d pairs, oracle has %d", total, live)
	}
	if err := e.Tree.Check(); err != nil {
		t.Fatal(err)
	}
	ps, ok := e.PoolStats()
	if !ok {
		t.Fatal("disk-native engine has no pool")
	}
	if ps.Evictions == 0 {
		t.Fatalf("pool never evicted — the tiny-pool premise failed: %+v", ps)
	}
	if ps.Resident > ps.Capacity {
		t.Fatalf("resident %d exceeds capacity %d", ps.Resident, ps.Capacity)
	}
	// The background compressor and the pool's read-ahead worker may be
	// in the middle of a page access still: a pin seen now is theirs, and
	// gone in a moment. One that stays is a leak.
	for deadline := time.Now().Add(5 * time.Second); ps.Pinned != 0; ps, _ = e.PoolStats() {
		if time.Now().After(deadline) {
			t.Fatalf("pins outstanding at rest: %+v", ps)
		}
		time.Sleep(time.Millisecond)
	}
	t.Logf("pool: %+v", ps)
	// Close runs the pool's leaked-pin audit; it must come back clean.
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
