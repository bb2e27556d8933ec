package blink

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"blinktree/internal/base"
	"blinktree/internal/node"
	"blinktree/internal/storage"
)

// TestOverwriteInPlaceMonotonic races in-place value overwrites against
// every lock-free reader: writers Upsert (and Update, whose function
// yields between the leaf's Get and the store) rising per-key
// generations on present keys, while readers Search, Range, Cursor and
// ReverseCursor. Each reader checks that a key's generation never goes
// backwards in what it reads and that every value is one a writer wrote.
// It runs on MemStore and on PagedStore over a pool of 8 frames, where
// nearly every Get evicts, so frames are recycled and pages re-decoded
// between a writer's Get and its store. Run under -race.
//
// Mutation-checked on the paged store: encoding the page before the
// store (no re-encode) fails it every run, as an evicted page comes back
// with an older generation. Storing the word before installing the node
// on the frame fails it in most runs: the window needs an eviction
// inside a writer's own Get-to-store gap, which the yielding Updates
// widen. TestPagedSetValueOrder (internal/node) fails on that order
// every run.
func TestOverwriteInPlaceMonotonic(t *testing.T) {
	// rounds is per writer. On the paged store a quarter of the writes
	// are Updates that yield under the leaf lock; on MemStore, where
	// readers never block, a yield under the lock stalls the other
	// writers for a scheduler time slice, and there is no frame to evict.
	stores := []struct {
		name   string
		rounds int
		yield  bool
		make   func(*testing.T) node.Store
	}{
		{"mem", 20000, false, func(*testing.T) node.Store { return node.NewMemStore() }},
		{"paged", 4000, true, func(t *testing.T) node.Store {
			ps, err := node.NewPagedStore(storage.NewBufferPool(storage.NewMemStore(512), 8))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ps.Close() })
			return ps
		}},
	}
	const (
		keys    = 600
		writers = 3
		readers = 4
	)
	// A value names its key and its generation, so a reader can tell a
	// value of another key, or one no writer has issued yet.
	enc := func(k base.Key, gen uint64) base.Value { return base.Value(uint64(k)<<32 | gen) }
	for _, sc := range stores {
		t.Run(sc.name, func(t *testing.T) {
			st := sc.make(t)
			tr, err := New(Config{Store: st, MinPairs: 4})
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			if err := tr.BulkLoad(func() (base.Key, base.Value, bool) {
				if i == keys {
					return 0, 0, false
				}
				i++
				return base.Key(i - 1), enc(base.Key(i-1), 1), true
			}, 0.7); err != nil {
				t.Fatal(err)
			}
			var issued [keys]atomic.Uint64 // the highest generation a writer has begun to store
			for k := range issued {
				issued[k].Store(1)
			}

			var done atomic.Bool
			var rwg, wwg sync.WaitGroup
			for r := 0; r < readers; r++ {
				rwg.Add(1)
				go func(r int) {
					defer rwg.Done()
					rng := rand.New(rand.NewPCG(uint64(r), 3))
					var seen [keys]uint64
					ok := true
					read := func(k base.Key, v base.Value) bool {
						gen := uint64(v) & (1<<32 - 1)
						switch {
						case k >= keys || uint64(v)>>32 != uint64(k):
							t.Errorf("reader %d: key %d holds %#x, a value of another key", r, k, v)
						case gen > issued[k].Load():
							t.Errorf("reader %d: key %d holds generation %d, none issued past %d", r, k, gen, issued[k].Load())
						case gen < seen[k]:
							t.Errorf("reader %d: key %d went back from generation %d to %d", r, k, seen[k], gen)
						default:
							seen[k] = gen
							return true
						}
						ok = false
						return false
					}
					for ok && !done.Load() {
						lo := base.Key(rng.IntN(keys))
						switch rng.IntN(4) {
						case 0:
							v, err := tr.Search(lo)
							if err != nil {
								t.Errorf("reader %d: Search(%d): %v", r, lo, err)
								return
							}
							read(lo, v)
						case 1:
							if err := tr.Range(lo, lo+64, read); err != nil {
								t.Errorf("reader %d: Range: %v", r, err)
								return
							}
						case 2:
							c := tr.NewCursor(lo)
							for n := 0; n < 64 && ok; n++ {
								k, v, more := c.Next()
								if !more {
									break
								}
								read(k, v)
							}
							if err := c.Err(); err != nil {
								t.Errorf("reader %d: Cursor: %v", r, err)
								return
							}
						case 3:
							c := tr.NewReverseCursor(lo)
							for n := 0; n < 64 && ok; n++ {
								k, v, more := c.Next()
								if !more {
									break
								}
								read(k, v)
							}
							if err := c.Err(); err != nil {
								t.Errorf("reader %d: ReverseCursor: %v", r, err)
								return
							}
						}
					}
				}(r)
			}
			var gens [keys]uint64 // each key has one writer: w owns k ≡ w mod writers
			for w := 0; w < writers; w++ {
				wwg.Add(1)
				go func(w int) {
					defer wwg.Done()
					rng := rand.New(rand.NewPCG(uint64(w), 5))
					for r := 0; r < sc.rounds; r++ {
						k := base.Key(writers*rng.IntN(keys/writers) + w)
						prev := gens[k] + 1
						gen := prev + 1
						issued[k].Store(gen)
						if sc.yield && r%4 == 0 {
							_, err := tr.Update(k, func(cur base.Value) base.Value {
								if cur != enc(k, prev) {
									t.Errorf("writer %d: Update(%d) saw %#x, wrote %#x last", w, k, cur, enc(k, prev))
								}
								runtime.Gosched() // widen the gap between the leaf's Get and the store
								return enc(k, gen)
							})
							if err != nil {
								t.Errorf("writer %d: Update(%d): %v", w, k, err)
								return
							}
						} else if old, existed, err := tr.Upsert(k, enc(k, gen)); err != nil || !existed || old != enc(k, prev) {
							t.Errorf("writer %d: Upsert(%d) = (%#x, %v, %v), wrote %#x last", w, k, old, existed, err, enc(k, prev))
							return
						}
						gens[k]++
					}
				}(w)
			}
			wwg.Wait()
			done.Store(true)
			rwg.Wait()
			if t.Failed() {
				return
			}
			for k := base.Key(0); k < keys; k++ {
				if v, err := tr.Search(k); err != nil || v != enc(k, gens[k]+1) {
					t.Fatalf("Search(%d) = (%#x, %v), last written %#x", k, v, err, enc(k, gens[k]+1))
				}
			}
			mustCheck(t, tr)
			if s := tr.Stats(); s.Splits != 0 {
				t.Fatalf("%d splits: overwrites of present keys must not restructure", s.Splits)
			}
			if ps, ok := st.(*node.PagedStore); ok {
				if ps.Pool().Stats().Evictions == 0 {
					t.Fatal("no evictions: the paged run is vacuous")
				}
			}
		})
	}
}
