package blinktree

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
)

func TestOpenDefaults(t *testing.T) {
	tr, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Insert(1, 10); err != nil {
		t.Fatal(err)
	}
	if v, err := tr.Search(1); err != nil || v != 10 {
		t.Fatalf("Search = (%d,%v)", v, err)
	}
	if _, err := tr.Search(2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing = %v", err)
	}
	if err := tr.Insert(1, 11); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("dup = %v", err)
	}
	if err := tr.Delete(1); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("len=%d height=%d", tr.Len(), tr.Height())
	}
}

func TestBackgroundCompressionEndToEnd(t *testing.T) {
	tr, err := Open(Options{MinPairs: 3, CompressorWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	const n = 3000
	for i := 0; i < n; i++ {
		if err := tr.Insert(Key(i), Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if i%10 != 0 {
			if err := tr.Delete(Key(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tr.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Occupancy.Underfull != 0 {
		t.Fatalf("underfull after Compact: %+v", st.Occupancy)
	}
	if st.Merges == 0 {
		t.Fatal("no merges recorded")
	}
	if st.CompressorMaxLocks > 3 {
		t.Fatalf("compressor held %d locks", st.CompressorMaxLocks)
	}
	if st.Tree.InsertLocks.MaxHeld > 1 {
		t.Fatalf("insert held %d locks", st.Tree.InsertLocks.MaxHeld)
	}
	for i := 0; i < n; i += 10 {
		if v, err := tr.Search(Key(i)); err != nil || v != Value(i) {
			t.Fatalf("survivor %d: (%d,%v)", i, v, err)
		}
	}
}

func TestCompressionModes(t *testing.T) {
	for _, mode := range []CompressionMode{CompressionOff, CompressionManual, CompressionBackground} {
		tr, err := Open(Options{MinPairs: 2, Compression: mode})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			_ = tr.Insert(Key(i), Value(i))
		}
		for i := 0; i < 500; i += 2 {
			_ = tr.Delete(Key(i))
		}
		// Check wants a structure that holds still: the drain also waits
		// out the background workers' rearrangements (no-op when off).
		if err := tr.DrainCompression(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Check(); err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPagedTreeOnDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.db")
	tr, err := Open(Options{Path: path, MinPairs: 4, PageSize: 512, CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	const n = 2000
	for i := 0; i < n; i++ {
		if err := tr.Insert(Key(i*7), Value(i)); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if v, err := tr.Search(Key(i * 7)); err != nil || v != Value(i) {
			t.Fatalf("Search = (%d,%v)", v, err)
		}
	}
	// Page capacity guard.
	if _, err := Open(Options{Path: filepath.Join(t.TempDir(), "x.db"), MinPairs: 64, PageSize: 256}); err == nil {
		t.Fatal("oversized MinPairs accepted for tiny page")
	}
}

func TestSnapshotRestore(t *testing.T) {
	tr, err := Open(Options{MinPairs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	rng := rand.New(rand.NewSource(3))
	model := map[Key]Value{}
	for i := 0; i < 1000; i++ {
		k := Key(rng.Intn(5000))
		if _, dup := model[k]; dup {
			continue
		}
		model[k] = Value(k) * 2
		if err := tr.Insert(k, Value(k)*2); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := tr.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	tr2, err := Open(Options{MinPairs: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	if err := tr2.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if tr2.Len() != len(model) {
		t.Fatalf("restored len %d != %d", tr2.Len(), len(model))
	}
	for k, v := range model {
		if got, err := tr2.Search(k); err != nil || got != v {
			t.Fatalf("restored key %d: (%d,%v)", k, got, err)
		}
	}
	if err := tr2.Check(); err != nil {
		t.Fatal(err)
	}
	// Garbage rejected.
	if err := tr2.Restore(bytes.NewReader([]byte("nonsense!"))); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

// TestVerifiedRestoreRoot: Restore loads pairs without logging them,
// but a verified index must still mark their buckets, or a root taken
// before the load stays cached and the restored index serves it.
func TestVerifiedRestoreRoot(t *testing.T) {
	src, err := Open(Options{Verified: true})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for i := 0; i < 1000; i++ {
		if err := src.Insert(Key(i)*0x9E3779B97F4A7C15, Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := src.Root()
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := src.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	type verifiedIndex interface {
		Index
		Root() ([32]byte, error)
	}
	for _, fe := range []struct {
		name string
		open func() (verifiedIndex, error)
	}{
		{"tree", func() (verifiedIndex, error) { return Open(Options{Verified: true}) }},
		{"sharded", func() (verifiedIndex, error) { return OpenSharded(1, Options{Verified: true}) }},
	} {
		idx, err := fe.open()
		if err != nil {
			t.Fatal(err)
		}
		defer idx.Close()
		empty, err := idx.Root()
		if err != nil {
			t.Fatal(err)
		}
		if err := idx.Restore(bytes.NewReader(snap.Bytes())); err != nil {
			t.Fatal(err)
		}
		got, err := idx.Root()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: root after Restore %x, source %x (empty %x)", fe.name, got[:8], want[:8], empty[:8])
		}
	}
}

func TestMinMaxPublic(t *testing.T) {
	tr, _ := Open(Options{MinPairs: 2})
	defer tr.Close()
	if _, _, err := tr.Min(); !errors.Is(err, ErrNotFound) {
		t.Fatal("Min on empty")
	}
	for _, k := range []Key{9, 3, 7} {
		_ = tr.Insert(k, Value(k))
	}
	if k, _, _ := tr.Min(); k != 3 {
		t.Fatalf("Min = %d", k)
	}
	if k, _, _ := tr.Max(); k != 9 {
		t.Fatalf("Max = %d", k)
	}
}

func TestConcurrentPublicAPI(t *testing.T) {
	tr, err := Open(Options{MinPairs: 3, CompressorWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				k := Key(rng.Intn(2000))
				switch rng.Intn(3) {
				case 0:
					if err := tr.Insert(k, Value(k)); err != nil && !errors.Is(err, ErrDuplicate) {
						t.Errorf("insert: %v", err)
						return
					}
				case 1:
					if err := tr.Delete(k); err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("delete: %v", err)
						return
					}
				default:
					if v, err := tr.Search(k); err == nil && v != Value(k) {
						t.Errorf("foreign value %d under %d", v, k)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := tr.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseStopsEverything(t *testing.T) {
	tr, err := Open(Options{MinPairs: 2, CompressorWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		_ = tr.Insert(Key(i), 0)
	}
	for i := 0; i < 300; i += 2 {
		_ = tr.Delete(Key(i))
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(1000, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("insert after close = %v", err)
	}
}
