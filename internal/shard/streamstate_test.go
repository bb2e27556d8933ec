package shard

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"blinktree/internal/base"
	"blinktree/internal/wal"
)

// captureState runs the bootstrap protocol replication and migration
// both build on: StreamState into a map, then replay the WAL tail from
// the returned segment on top of it. The caller must have quiesced
// mutators first, so a drained tail means the capture is the complete
// state. ErrTruncated (a checkpoint deleted the resume segment before
// the tail was read) restarts the whole capture, exactly as a real
// follower re-bootstraps.
func captureState(t *testing.T, e *Engine) map[base.Key]base.Value {
	t.Helper()
	for attempt := 0; attempt < 5; attempt++ {
		state := make(map[base.Key]base.Value)
		seg, err := e.StreamState(func(k base.Key, v base.Value) error {
			state[k] = v
			return nil
		})
		if err != nil {
			t.Fatalf("StreamState: %v", err)
		}
		tail := wal.NewTailReader(e.WALDir(), seg, wal.SegmentHeaderLen)
		recs := make([]wal.Record, 0, 256)
		truncated := false
		for {
			recs, err = tail.Next(256, recs[:0])
			if errors.Is(err, wal.ErrTruncated) {
				truncated = true
				break
			}
			if err != nil {
				t.Fatalf("tail: %v", err)
			}
			if len(recs) == 0 {
				break
			}
			for _, rec := range recs {
				switch rec.Kind {
				case wal.KindPut:
					state[rec.Key] = rec.Value
				case wal.KindDel:
					delete(state, rec.Key)
				}
			}
		}
		tail.Close()
		if !truncated {
			return state
		}
	}
	t.Fatal("capture: resume segment truncated on every attempt")
	return nil
}

// checkCapture fails the test unless captured equals the engine's
// state exactly.
func checkCapture(t *testing.T, e *Engine, captured map[base.Key]base.Value) {
	t.Helper()
	live := 0
	err := e.Tree.Range(0, base.Key(^uint64(0)), func(k base.Key, v base.Value) bool {
		live++
		got, ok := captured[k]
		if !ok {
			t.Errorf("capture missing key %d", k)
			return false
		}
		if got != v {
			t.Errorf("capture key %d = %d, want %d", k, got, v)
			return false
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if live != len(captured) {
		t.Fatalf("capture holds %d pairs, engine holds %d", len(captured), live)
	}
}

// TestStreamStateRacesCheckpoint drives writers and a checkpoint loop
// against repeated StreamState scans, then verifies the protocol's
// contract: snapshot plus tail replay from the returned segment equals
// the final state, with checkpoints free to truncate segments at any
// point (the capture re-bootstraps, never silently loses records).
func TestStreamStateRacesCheckpoint(t *testing.T) {
	r := mustRouter(t, 1, Options{MinPairs: 4, Durable: true, Dir: t.TempDir(), WALNoSync: true})
	e := r.Engine(0)
	const keys = 4096
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := base.Key(uint64(i%keys) * 1234567)
				if i%5 == 0 {
					if err := e.Delete(k); err != nil && !errors.Is(err, base.ErrNotFound) {
						t.Error(err)
						return
					}
				} else if _, _, err := e.Upsert(k, base.Value(i)); err != nil {
					t.Error(err)
					return
				}
				i += 3
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Scans racing live writers and checkpoints: each must complete
	// without error (consistency of a mid-flight scan is unobservable;
	// the full protocol is checked after quiesce below).
	for i := 0; i < 4; i++ {
		if _, err := e.StreamState(func(base.Key, base.Value) error { return nil }); err != nil {
			t.Fatalf("StreamState under load: %v", err)
		}
	}

	close(stop)
	wg.Wait()
	checkCapture(t, e, captureState(t, e))
}

// TestStreamStateRacesCompression runs a delete-heavy workload that
// keeps the background compressors busy merging underfull nodes while
// StreamState scans, then checks the capture protocol end to end and
// the tree's structural invariants. Pair movement to the left during a
// scan could make the scan skip pairs; StreamState does not pause the
// workers because Tree.step restarts a scan that would (see
// Engine.scanLocked), and this test is the regression net.
func TestStreamStateRacesCompression(t *testing.T) {
	r := mustRouter(t, 1, Options{MinPairs: 8, CompressorWorkers: 2, Durable: true, Dir: t.TempDir(), WALNoSync: true})
	e := r.Engine(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wave := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Insert a dense block, then delete most of it: every wave
			// leaves a trail of underfull nodes for the compressors.
			lo := uint64(wave%8) * 100000
			for i := uint64(0); i < 512; i++ {
				if _, _, err := e.Upsert(base.Key(lo+i), base.Value(wave)); err != nil {
					t.Error(err)
					return
				}
			}
			for i := uint64(0); i < 512; i++ {
				if i%7 == 0 {
					continue
				}
				if err := e.Delete(base.Key(lo + i)); err != nil && !errors.Is(err, base.ErrNotFound) {
					t.Error(err)
					return
				}
			}
			wave++
		}
	}()

	for i := 0; i < 6; i++ {
		if _, err := e.StreamState(func(base.Key, base.Value) error { return nil }); err != nil {
			t.Fatalf("StreamState under load: %v", err)
		}
	}

	close(stop)
	wg.Wait()
	checkCapture(t, e, captureState(t, e))
	if err := r.Check(); err != nil {
		t.Fatalf("structural check after scans: %v", err)
	}
}

// TestStreamStateStrictOrderExactlyOnce pins the ordering contract the
// integrity layer leans on: every StreamState scan emits keys in
// strictly ascending order, each key exactly once — even while writers
// mutate, Checkpoint rotates and truncates segments, and a delete-heavy
// workload keeps the compressors moving pairs leftward. StreamHasher
// folds the checkpoint stream into the state root in emission order, so
// a duplicate or out-of-order pair would silently corrupt every root.
func TestStreamStateStrictOrderExactlyOnce(t *testing.T) {
	r := mustRouter(t, 1, Options{MinPairs: 8, CompressorWorkers: 2, Durable: true, Dir: t.TempDir(), WALNoSync: true})
	e := r.Engine(0)

	// A permanent floor of keys nobody deletes: every scan must see at
	// least these, so an empty emission is a genuine skip, not timing.
	const floor = 100
	for i := uint64(0); i < floor; i++ {
		if _, _, err := e.Upsert(base.Key(5000000+i*17), base.Value(i)); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Churn writers: dense insert waves followed by sparse deletes keep
	// a steady supply of underfull nodes in the compression queue.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			wave := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := uint64(g)*1000000 + uint64(wave%8)*50000
				for i := uint64(0); i < 256; i++ {
					if _, _, err := e.Upsert(base.Key(lo+i), base.Value(wave)); err != nil {
						t.Error(err)
						return
					}
				}
				for i := uint64(0); i < 256; i++ {
					if i%5 == 0 {
						continue
					}
					if err := e.Delete(base.Key(lo + i)); err != nil && !errors.Is(err, base.ErrNotFound) {
						t.Error(err)
						return
					}
				}
				wave++
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	for scan := 0; scan < 8; scan++ {
		var prev base.Key
		n := 0
		_, err := e.StreamState(func(k base.Key, v base.Value) error {
			if n > 0 && k <= prev {
				return fmt.Errorf("scan %d emitted key %d after %d (pair %d): order/once violated", scan, k, prev, n)
			}
			prev = k
			n++
			return nil
		})
		if err != nil {
			t.Fatalf("StreamState: %v", err)
		}
		if n < floor {
			t.Fatalf("scan %d emitted %d pairs, below the permanent floor of %d", scan, n, floor)
		}
	}

	close(stop)
	wg.Wait()
	checkCapture(t, e, captureState(t, e))
	if err := r.Check(); err != nil {
		t.Fatalf("structural check after scans: %v", err)
	}
}

// TestStreamStateVolatile pins the error contract: a volatile engine
// has no WAL to resume from, so StreamState must refuse.
func TestStreamStateVolatile(t *testing.T) {
	r := mustRouter(t, 1, Options{MinPairs: 4})
	if _, err := r.Engine(0).StreamState(func(base.Key, base.Value) error { return nil }); err == nil {
		t.Fatal("StreamState on a volatile engine did not fail")
	}
}
