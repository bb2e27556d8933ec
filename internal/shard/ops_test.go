package shard

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"blinktree/internal/base"
	"blinktree/internal/wal"
)

// TestDurableSameKeyReplayConverges is the stripe lock's one job: racing
// mutations of one key must append their records in the order they
// applied, or replaying the log ends on another value than the live tree
// holds. In each round eight goroutines run every mutation kind, point
// and batched, on sixteen hot keys with unique values, so any reordering
// shows, while churn on the keys between them splits and merges the hot
// keys' leaves. After each round the log read so far must replay to the
// live state — a reordering is visible only while it is the last write
// to its key, so the test looks often — and at the end recovery from
// the log alone must rebuild the state the engine held before Close.
func TestDurableSameKeyReplayConverges(t *testing.T) {
	const (
		workers = 8
		hotKeys = 16
		gap     = 64 // churn keys between two hot keys
		rounds  = 200
	)
	opts := Options{MinPairs: 2, Durable: true, Dir: t.TempDir(), WALNoSync: true}
	r, err := NewRouter(1, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := r.Engine(0)
	state := func(r *Router) map[base.Key]base.Value {
		m := make(map[base.Key]base.Value)
		if err := r.Range(0, base.Key(^uint64(0)), func(k base.Key, v base.Value) bool {
			m[k] = v
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return m
	}
	same := func(when string, want, got map[base.Key]base.Value) {
		t.Helper()
		for k, v := range want {
			if g, ok := got[k]; !ok || g != v {
				t.Fatalf("%s: key %d (hot %v) replays to (%d, present %v), live %d", when, k, k%gap == 0, g, ok, v)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: replay holds %d pairs, live %d", when, len(got), len(want))
		}
	}

	var seq atomic.Uint64 // every written value is unique
	next := func() base.Value { return base.Value(seq.Add(1)) }
	tolerate := func(err error) error {
		if errors.Is(err, base.ErrNotFound) || errors.Is(err, base.ErrDuplicate) {
			return nil
		}
		return err
	}
	// round is one goroutine's share of a round: a batch, which applies
	// and appends op after op without waiting between them, so racing
	// groups meet on the hot keys far more often than point calls do,
	// then a few point calls of every kind.
	round := func(rng *rand.Rand) error {
		hot := func() base.Key { return base.Key(rng.Intn(hotKeys) * gap) }
		batch := make([]Op, 32)
		for j := range batch {
			k := hot()
			old, _ := e.Tree.Search(k)
			batch[j] = Op{Kind: OpKind(1 + rng.Intn(6)), Key: k, Value: next(), Old: old}
		}
		for _, res := range r.ApplyBatch(batch) {
			if err := tolerate(res.Err); err != nil {
				return err
			}
		}
		for i := 0; i < 8; i++ {
			k, v := hot(), next()
			var err error
			switch rng.Intn(8) {
			case 0:
				err = e.Insert(k, v)
			case 1:
				err = e.Delete(k)
			case 2:
				_, _, err = e.Upsert(k, v)
			case 3:
				_, _, err = e.GetOrInsert(k, v)
			case 4:
				_, err = e.Update(k, func(base.Value) base.Value { return v })
			case 5:
				cur, _ := e.Tree.Search(k)
				_, err = e.CompareAndSwap(k, cur, v)
			case 6:
				cur, _ := e.Tree.Search(k)
				_, err = e.CompareAndDelete(k, cur)
			case 7:
				// Churn between the hot keys: splits and merges their
				// leaves under the racing writers.
				c := k + base.Key(1+rng.Intn(gap-1))
				if rng.Intn(2) == 0 {
					_, _, err = e.Upsert(c, v)
				} else {
					err = e.Delete(c)
				}
			}
			if err = tolerate(err); err != nil {
				return err
			}
		}
		return nil
	}

	tail := wal.NewTailReader(e.WALDir(), 1, wal.SegmentHeaderLen)
	defer tail.Close()
	replayed := make(map[base.Key]base.Value)
	rngs := make([]*rand.Rand, workers)
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(int64(w)))
	}
	for i := 0; i < rounds; i++ {
		var wg sync.WaitGroup
		for _, rng := range rngs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := round(rng); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for {
			recs, err := tail.Next(256, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) == 0 {
				break
			}
			for _, rec := range recs {
				if rec.Kind == wal.KindPut {
					replayed[rec.Key] = rec.Value
				} else {
					delete(replayed, rec.Key)
				}
			}
		}
		same("round", state(r), replayed)
	}

	before := state(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	same("recovery", before, state(mustRouter(t, 1, opts)))
}
