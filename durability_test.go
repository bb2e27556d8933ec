package blinktree

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// openDurable opens a front-end over dir: a single tree when shards ≤
// 1, else a sharded index, so every durability test runs against both.
func openDurable(t *testing.T, dir string, shards int) Index {
	t.Helper()
	return openIndex(t, shards, Options{Durable: true, Dir: dir})
}

// openIndex opens a tree, or a sharded index when shards > 1.
func openIndex(t *testing.T, shards int, opts Options) Index {
	t.Helper()
	if shards > 1 {
		idx, err := OpenSharded(shards, opts)
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	idx, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// crashIndex simulates a crash: at most partial bytes of any pending
// commit group reach disk and nothing pending is flushed. The index
// must be abandoned afterwards.
func crashIndex(idx Index, partial int) {
	switch v := idx.(type) {
	case *Tree:
		v.eng.CrashWAL(partial)
	case *Sharded:
		v.r.CrashWAL(partial)
	}
}

func stretchKey(i uint64) Key {
	// Spread keys over the full range so sharded runs hit every shard.
	return Key(i * (^uint64(0)/(1<<20) + 1))
}

func TestDurableRecoversAfterClose(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(map[int]string{1: "tree", 4: "sharded"}[shards], func(t *testing.T) {
			dir := t.TempDir()
			idx := openDurable(t, dir, shards)
			const n = 500
			for i := uint64(0); i < n; i++ {
				if err := idx.Insert(stretchKey(i), Value(i)); err != nil {
					t.Fatal(err)
				}
			}
			// Exercise every logged mutation kind.
			if _, _, err := idx.Upsert(stretchKey(1), 1001); err != nil {
				t.Fatal(err)
			}
			if _, err := idx.Update(stretchKey(2), func(v Value) Value { return v * 10 }); err != nil {
				t.Fatal(err)
			}
			if ok, err := idx.CompareAndSwap(stretchKey(3), 3, 333); err != nil || !ok {
				t.Fatalf("cas: %v %v", ok, err)
			}
			if err := idx.Delete(stretchKey(4)); err != nil {
				t.Fatal(err)
			}
			if ok, err := idx.CompareAndDelete(stretchKey(5), 5); err != nil || !ok {
				t.Fatalf("cad: %v %v", ok, err)
			}
			if _, loaded, err := idx.GetOrInsert(stretchKey(n), 42); err != nil || loaded {
				t.Fatalf("getorinsert: %v %v", loaded, err)
			}
			if err := idx.Close(); err != nil {
				t.Fatal(err)
			}

			re := openDurable(t, dir, shards)
			defer re.Close()
			if got := re.Len(); got != n-1 {
				t.Fatalf("recovered %d keys, want %d", got, n-1)
			}
			check := map[uint64]Value{1: 1001, 2: 20, 3: 333, 6: 6, n: 42}
			for i, want := range check {
				if got, err := re.Search(stretchKey(i)); err != nil || got != want {
					t.Fatalf("key %d: got %d, %v; want %d", i, got, err, want)
				}
			}
			for _, gone := range []uint64{4, 5} {
				if _, err := re.Search(stretchKey(gone)); !errors.Is(err, ErrNotFound) {
					t.Fatalf("deleted key %d came back", gone)
				}
			}
			if err := re.Check(); err != nil {
				t.Fatal(err)
			}
			st, err := re.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.WAL.Replayed == 0 {
				t.Fatal("recovery replayed nothing")
			}
		})
	}
}

func TestDurableCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	tr, err := Open(Options{Durable: true, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	for i := uint64(0); i < n; i++ {
		if err := tr.Insert(Key(i), Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(n); i < 2*n; i++ {
		if err := tr.Insert(Key(i), Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := tr.Stats()
	if st.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d", st.Checkpoints)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// On disk: exactly one checkpoint, and no segment predating it.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ckpts, segs := 0, 0
	for _, e := range ents {
		switch {
		case strings.HasPrefix(e.Name(), "checkpoint-"):
			ckpts++
		case strings.HasPrefix(e.Name(), "wal-"):
			segs++
		}
	}
	if ckpts != 1 || segs == 0 {
		t.Fatalf("dir holds %d checkpoints, %d segments", ckpts, segs)
	}

	re := openDurable(t, dir, 1)
	defer re.Close()
	if got := re.Len(); got != 2*n {
		t.Fatalf("recovered %d keys, want %d", got, 2*n)
	}
	rst, _ := re.Stats()
	// Only the suffix since the checkpoint should have replayed.
	if rst.WAL.Replayed >= 2*n {
		t.Fatalf("replayed %d records; checkpoint did not truncate", rst.WAL.Replayed)
	}
	if err := re.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCheckpointUnderLoad checkpoints repeatedly while writers
// run — the fuzzy-snapshot + idempotent-suffix path — then crashes and
// verifies recovery still matches the oracle.
func TestDurableCheckpointUnderLoad(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(map[int]string{1: "tree", 4: "sharded"}[shards], func(t *testing.T) {
			dir := t.TempDir()
			idx := openDurable(t, dir, shards)
			const workers = 4
			const perWorker = 400
			var wg sync.WaitGroup
			acked := make([]map[uint64]Value, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				acked[w] = make(map[uint64]Value, perWorker)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						k := uint64(w*perWorker + i)
						if _, _, err := idx.Upsert(stretchKey(k), Value(k)); err != nil {
							t.Error(err)
							return
						}
						acked[w][k] = Value(k)
					}
				}(w)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < 5; i++ {
					if err := idx.Checkpoint(); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			wg.Wait()
			<-done
			if err := idx.Close(); err != nil {
				t.Fatal(err)
			}

			re := openDurable(t, dir, shards)
			defer re.Close()
			for w := 0; w < workers; w++ {
				for k, want := range acked[w] {
					if got, err := re.Search(stretchKey(k)); err != nil || got != want {
						t.Fatalf("key %d: got %d, %v; want %d", k, got, err, want)
					}
				}
			}
			if got := re.Len(); got != workers*perWorker {
				t.Fatalf("recovered %d keys, want %d", got, workers*perWorker)
			}
			if err := re.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDurableCheckpointWithCompressionChurn checkpoints while mass
// deletions keep background compression merging leaves — the regime
// where a fuzzy scan could race a leftward pair move and the
// checkpoint would silently drop an old acknowledged key (the scan
// restarts instead; see shard.Engine.scanLocked). Every operation is
// acknowledged before Close, so recovery must be exact.
func TestDurableCheckpointWithCompressionChurn(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(map[int]string{1: "tree", 4: "sharded"}[shards], func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Durable: true, Dir: dir, MinPairs: 4, CompressorWorkers: 2}
			var idx Index
			var err error
			if shards > 1 {
				idx, err = OpenSharded(shards, opts)
			} else {
				idx, err = Open(opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			const workers = 4
			const perWorker = 500
			for i := uint64(0); i < workers*perWorker; i++ {
				if err := idx.Insert(stretchKey(i), Value(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := idx.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// Delete 90% from every worker's slice while checkpoints run.
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						if i%10 == 0 {
							continue
						}
						if err := idx.Delete(stretchKey(uint64(w*perWorker + i))); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < 6; i++ {
					if err := idx.Checkpoint(); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			wg.Wait()
			<-done
			if err := idx.Close(); err != nil {
				t.Fatal(err)
			}

			// Manual compression: replaying the deletes queues underfull
			// nodes, and Check below needs no compressor mid-merge.
			re := openIndex(t, shards, Options{Durable: true, Dir: dir, Compression: CompressionManual})
			defer re.Close()
			for w := 0; w < workers; w++ {
				for i := 0; i < perWorker; i++ {
					k := uint64(w*perWorker + i)
					v, err := re.Search(stretchKey(k))
					if i%10 == 0 {
						if err != nil || v != Value(k) {
							t.Fatalf("surviving key %d lost: %d, %v", k, v, err)
						}
					} else if !errors.Is(err, ErrNotFound) {
						t.Fatalf("deleted key %d: %d, %v", k, v, err)
					}
				}
			}
			if got, want := re.Len(), workers*perWorker/10; got != want {
				t.Fatalf("recovered %d keys, want %d", got, want)
			}
			if err := re.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// durOracle tracks one worker's per-key state: the last acknowledged
// state, and — for the single operation in flight when the crash hit —
// the attempted state, either of which is a legal recovery outcome.
type durState struct {
	val     Value
	present bool
}

// TestDurableCrashRecovery is the crash-injection harness of the
// acceptance criteria: concurrent workers mutate disjoint key sets
// against a WAL-backed index, the committer is killed at a randomized
// torn-write offset, and recovery must yield a prefix-consistent
// state — every acknowledged operation present, nothing present that
// was never issued — for both front-ends.
func TestDurableCrashRecovery(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(map[int]string{1: "tree", 4: "sharded"}[shards], func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7 + shards)))
			for round := 0; round < 6; round++ {
				dir := t.TempDir()
				idx := openDurable(t, dir, shards)

				const workers = 4
				const keysPer = 64
				lastAcked := make([]map[uint64]durState, workers)
				attempt := make([]map[uint64]durState, workers)
				var acks atomic.Uint64
				var wg sync.WaitGroup
				stop := make(chan struct{})
				for w := 0; w < workers; w++ {
					lastAcked[w] = make(map[uint64]durState)
					attempt[w] = make(map[uint64]durState)
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						wrng := rand.New(rand.NewSource(int64(round*100 + w)))
						for seq := uint64(0); ; seq++ {
							select {
							case <-stop:
								return
							default:
							}
							i := uint64(wrng.Intn(keysPer))
							k := uint64(w*keysPer) + i
							cur := lastAcked[w][k]
							var next durState
							var err error
							switch {
							case cur.present && wrng.Intn(4) == 0:
								next = durState{}
								err = idx.Delete(stretchKey(k))
							case cur.present && wrng.Intn(3) == 0:
								next = durState{val: cur.val + 1, present: true}
								_, err = idx.Update(stretchKey(k), func(v Value) Value { return v + 1 })
							default:
								next = durState{val: Value(seq)<<8 | Value(w), present: true}
								_, _, err = idx.Upsert(stretchKey(k), next.val)
							}
							if err != nil {
								// The op's fate is unresolved: its record may or
								// may not have survived the torn write.
								attempt[w][k] = next
								return
							}
							lastAcked[w][k] = next
							acks.Add(1)
						}
					}(w)
				}
				// Let the workers build up real state — a few hundred
				// acknowledged ops — then kill the committer mid-group
				// at a random torn offset.
				target := uint64(200 + rng.Intn(600))
				for deadline := time.Now().Add(2 * time.Second); acks.Load() < target && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				crashIndex(idx, rng.Intn(80))
				close(stop)
				wg.Wait()

				re := openDurable(t, dir, shards)
				for w := 0; w < workers; w++ {
					for k, want := range lastAcked[w] {
						got, err := re.Search(stretchKey(k))
						if err != nil && !errors.Is(err, ErrNotFound) {
							t.Fatal(err)
						}
						recovered := durState{val: got, present: err == nil}
						if recovered == want {
							continue
						}
						if alt, ok := attempt[w][k]; ok && recovered == alt {
							continue // the in-flight op's record survived the tear
						}
						t.Fatalf("round %d worker %d key %d: recovered %+v, acked %+v, attempt %+v",
							round, w, k, recovered, want, attempt[w][k])
					}
				}
				// No phantoms: every recovered pair must be explainable.
				for k, v := range re.All() {
					raw := uint64(k) / (^uint64(0)/(1<<20) + 1)
					w := int(raw) / keysPer
					if w < 0 || w >= workers {
						t.Fatalf("round %d: phantom key %d", round, raw)
					}
					st := durState{val: v, present: true}
					if st != lastAcked[w][raw] {
						if alt, ok := attempt[w][raw]; !ok || st != alt {
							t.Fatalf("round %d: key %d has unexplained value %d", round, raw, v)
						}
					}
				}
				if err := re.Check(); err != nil {
					t.Fatal(err)
				}
				if err := re.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// openDiskNative opens a durable, disk-native front-end over dir with
// a pool far smaller than the working set (8 frames of 256-byte pages
// per shard), so eviction write-back runs throughout every test using
// it.
func openDiskNative(t *testing.T, dir string, shards int) Index {
	t.Helper()
	opts := Options{
		Durable: true, Dir: dir, MinPairs: 2, PageSize: 256,
		DiskNative: true, CacheBytes: 8 * 256,
	}
	var idx Index
	var err error
	if shards > 1 {
		idx, err = OpenSharded(shards, opts)
	} else {
		idx, err = Open(opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// TestDiskNativeCrashRecovery reruns the crash-injection harness with
// the buffer pool in the loop: the page files absorb eviction
// write-backs right up to the torn-write kill, and recovery must still
// be exactly "checkpoint + log suffix" — the scratch page files must
// contribute nothing. A mid-run checkpoint makes the recovered state
// depend on a snapshot taken *through* the pool as well.
func TestDiskNativeCrashRecovery(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(map[int]string{1: "tree", 4: "sharded"}[shards], func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(23 + shards)))
			for round := 0; round < 4; round++ {
				dir := t.TempDir()
				idx := openDiskNative(t, dir, shards)

				const workers = 4
				const keysPer = 64
				lastAcked := make([]map[uint64]durState, workers)
				attempt := make([]map[uint64]durState, workers)
				var acks atomic.Uint64
				var wg sync.WaitGroup
				stop := make(chan struct{})
				for w := 0; w < workers; w++ {
					lastAcked[w] = make(map[uint64]durState)
					attempt[w] = make(map[uint64]durState)
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						wrng := rand.New(rand.NewSource(int64(round*100 + w)))
						for seq := uint64(0); ; seq++ {
							select {
							case <-stop:
								return
							default:
							}
							i := uint64(wrng.Intn(keysPer))
							k := uint64(w*keysPer) + i
							cur := lastAcked[w][k]
							var next durState
							var err error
							switch {
							case cur.present && wrng.Intn(4) == 0:
								next = durState{}
								err = idx.Delete(stretchKey(k))
							default:
								next = durState{val: Value(seq)<<8 | Value(w), present: true}
								_, _, err = idx.Upsert(stretchKey(k), next.val)
							}
							if err != nil {
								attempt[w][k] = next
								return
							}
							lastAcked[w][k] = next
							acks.Add(1)
						}
					}(w)
				}
				// One range scanner keeps read-ahead and long pin chains
				// in play while the crash lands.
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						_ = idx.Range(0, Key(^uint64(0)), func(Key, Value) bool { return true })
					}
				}()
				target := uint64(200 + rng.Intn(400))
				for deadline := time.Now().Add(2 * time.Second); acks.Load() < target/2 && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				// Fuzzy checkpoint through the pool mid-run.
				if err := idx.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				for deadline := time.Now().Add(2 * time.Second); acks.Load() < target && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				crashIndex(idx, rng.Intn(80))
				close(stop)
				wg.Wait()

				re := openDiskNative(t, dir, shards)
				for w := 0; w < workers; w++ {
					for k, want := range lastAcked[w] {
						got, err := re.Search(stretchKey(k))
						if err != nil && !errors.Is(err, ErrNotFound) {
							t.Fatal(err)
						}
						recovered := durState{val: got, present: err == nil}
						if recovered == want {
							continue
						}
						if alt, ok := attempt[w][k]; ok && recovered == alt {
							continue
						}
						t.Fatalf("round %d worker %d key %d: recovered %+v, acked %+v, attempt %+v",
							round, w, k, recovered, want, attempt[w][k])
					}
				}
				for k, v := range re.All() {
					raw := uint64(k) / (^uint64(0)/(1<<20) + 1)
					w := int(raw) / keysPer
					if w < 0 || w >= workers {
						t.Fatalf("round %d: phantom key %d", round, raw)
					}
					st := durState{val: v, present: true}
					if st != lastAcked[w][raw] {
						if alt, ok := attempt[w][raw]; !ok || st != alt {
							t.Fatalf("round %d: key %d has unexplained value %d", round, raw, v)
						}
					}
				}
				if err := re.Check(); err != nil {
					t.Fatal(err)
				}
				st, err := re.Stats()
				if err != nil {
					t.Fatal(err)
				}
				if !st.Pooled {
					t.Fatal("disk-native index reports no pool")
				}
				if err := re.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestDurableTornTailEveryByte closes a tree cleanly, then truncates
// the tail segment at every byte boundary and recovers: each recovery
// must yield exactly the insert prefix whose records survive whole.
func TestDurableTornTailEveryByte(t *testing.T) {
	src := t.TempDir()
	tr, err := Open(Options{Durable: true, Dir: src})
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	for i := uint64(0); i < n; i++ {
		if err := tr.Insert(Key(i), Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	var segName string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "wal-") {
			if segName != "" {
				t.Fatal("expected a single segment")
			}
			segName = e.Name()
		}
	}
	data, err := os.ReadFile(filepath.Join(src, segName))
	if err != nil {
		t.Fatal(err)
	}
	const segHeader, recLen = 16, 25
	if len(data) != segHeader+n*recLen {
		t.Fatalf("segment %d bytes, want %d", len(data), segHeader+n*recLen)
	}
	for cut := 0; cut <= len(data); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(Options{Durable: true, Dir: dir})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		want := 0
		if cut >= segHeader {
			want = (cut - segHeader) / recLen
		}
		if got := re.Len(); got != want {
			t.Fatalf("cut %d: recovered %d keys, want %d", cut, got, want)
		}
		for i := 0; i < want; i++ {
			if v, err := re.Search(Key(i)); err != nil || v != Value(i) {
				t.Fatalf("cut %d: key %d: %d, %v", cut, i, v, err)
			}
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableApplyBatch drives the amortized batch commit path and
// recovers the result.
func TestDurableApplyBatch(t *testing.T) {
	dir := t.TempDir()
	idx, err := OpenSharded(4, Options{Durable: true, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const n = 512
	ops := make([]BatchOp, n)
	for i := range ops {
		ops[i] = BatchOp{Kind: BatchUpsert, Key: stretchKey(uint64(i)), Value: Value(i)}
	}
	for i, res := range idx.ApplyBatch(ops) {
		if res.Err != nil {
			t.Fatalf("op %d: %v", i, res.Err)
		}
	}
	// Mixed batch: deletes and CAS on top.
	ops2 := []BatchOp{
		{Kind: BatchDelete, Key: stretchKey(0)},
		{Kind: BatchCompareAndSwap, Key: stretchKey(1), Old: 1, Value: 100},
		{Kind: BatchSearch, Key: stretchKey(2)},
		{Kind: BatchGetOrInsert, Key: stretchKey(uint64(n)), Value: 7},
	}
	for i, res := range idx.ApplyBatch(ops2) {
		if res.Err != nil {
			t.Fatalf("op2 %d: %v", i, res.Err)
		}
	}
	st, _ := idx.Stats()
	if st.WAL.Syncs == 0 || st.WAL.Records < n {
		t.Fatalf("wal stats: %+v", st.WAL)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDurable(t, dir, 4)
	defer re.Close()
	if got := re.Len(); got != n {
		t.Fatalf("recovered %d keys, want %d", got, n)
	}
	if v, err := re.Search(stretchKey(1)); err != nil || v != 100 {
		t.Fatalf("cas'd key: %d, %v", v, err)
	}
	if _, err := re.Search(stretchKey(0)); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted key came back")
	}
	if v, err := re.Search(stretchKey(uint64(n))); err != nil || v != 7 {
		t.Fatalf("getorinsert'd key: %d, %v", v, err)
	}
}

// TestDurableGroupCommitAmortizes asserts the group-commit acceptance
// criterion directly: under concurrent writers the mean group size
// must exceed 1 (many records per fsync).
func TestDurableGroupCommitAmortizes(t *testing.T) {
	dir := t.TempDir()
	tr, err := Open(Options{Durable: true, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	const workers, per = 16, 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, _, err := tr.Upsert(stretchKey(uint64(w*per+i)), 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.WAL.Records != workers*per {
		t.Fatalf("records = %d, want %d", st.WAL.Records, workers*per)
	}
	if mean := st.WAL.MeanGroup(); mean <= 1.0 {
		t.Fatalf("mean group size %.2f — group commit is not grouping", mean)
	}
	t.Logf("group commit: %d records / %d syncs (mean %.1f, max %d)",
		st.WAL.Records, st.WAL.Syncs, st.WAL.MeanGroup(), st.WAL.MaxGroup)
}

// TestDurableRestore: restoring a snapshot into a durable index loads
// unlogged (one checkpoint at the end, not one fsync per pair) and the
// result survives reopening.
func TestDurableRestore(t *testing.T) {
	src := NewTree()
	const n = 2000
	for i := uint64(0); i < n; i++ {
		if err := src.Insert(stretchKey(i), Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf strings.Builder
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	src.Close()

	for _, shards := range []int{1, 4} {
		t.Run(map[int]string{1: "tree", 4: "sharded"}[shards], func(t *testing.T) {
			dir := t.TempDir()
			idx := openDurable(t, dir, shards)
			if err := idx.Restore(strings.NewReader(buf.String())); err != nil {
				t.Fatal(err)
			}
			st, _ := idx.Stats()
			if st.WAL.Records >= n {
				t.Fatalf("restore logged %d per-pair records; want a checkpoint instead", st.WAL.Records)
			}
			if st.Checkpoints == 0 {
				t.Fatal("restore did not checkpoint")
			}
			if err := idx.Close(); err != nil {
				t.Fatal(err)
			}
			re := openDurable(t, dir, shards)
			defer re.Close()
			if got := re.Len(); got != n {
				t.Fatalf("recovered %d pairs after restore, want %d", got, n)
			}
			if v, err := re.Search(stretchKey(n - 1)); err != nil || v != n-1 {
				t.Fatalf("spot check: %d, %v", v, err)
			}
		})
	}
}

// TestVolatileCheckpointNoop: Checkpoint on a volatile index is a
// harmless no-op.
func TestVolatileCheckpointNoop(t *testing.T) {
	tr := NewTree()
	defer tr.Close()
	if err := tr.Insert(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sh := NewSharded(3)
	defer sh.Close()
	if err := sh.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableRequiresDir: Durable without Dir must fail loudly.
func TestDurableRequiresDir(t *testing.T) {
	if _, err := Open(Options{Durable: true}); err == nil {
		t.Fatal("Durable without Dir succeeded")
	}
	if _, err := OpenSharded(2, Options{Durable: true}); err == nil {
		t.Fatal("sharded Durable without Dir succeeded")
	}
}

// TestDurableLayoutGuard: reopening a durability directory with a
// different topology must error instead of silently hiding
// acknowledged data (the stride changes, so recovered keys would no
// longer route to the engines that hold them).
func TestDurableLayoutGuard(t *testing.T) {
	dir := t.TempDir()
	idx, err := OpenSharded(4, Options{Durable: true, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Insert(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSharded(8, Options{Durable: true, Dir: dir}); err == nil {
		t.Fatal("reopening shards=4 dir with shards=8 succeeded")
	}
	if _, err := Open(Options{Durable: true, Dir: dir}); err == nil {
		t.Fatal("reopening sharded dir as a single tree succeeded")
	}
	re, err := OpenSharded(4, Options{Durable: true, Dir: dir})
	if err != nil {
		t.Fatalf("matching reopen failed: %v", err)
	}
	defer re.Close()
	if v, err := re.Search(1); err != nil || v != 1 {
		t.Fatalf("recovered key: %d, %v", v, err)
	}

	// And the other direction: a single-tree dir refuses sharded reopen.
	tdir := t.TempDir()
	tr, err := Open(Options{Durable: true, Dir: tdir})
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()
	if _, err := OpenSharded(2, Options{Durable: true, Dir: tdir}); err == nil {
		t.Fatal("reopening single-tree dir sharded succeeded")
	}
}
