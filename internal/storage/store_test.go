package storage

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"blinktree/internal/base"
)

// storeFactories builds each Store implementation for table-driven tests.
func storeFactories(t *testing.T) map[string]func() Store {
	t.Helper()
	return map[string]func() Store{
		"mem": func() Store { return NewMemStore(256) },
		"file": func() Store {
			fs, err := NewFileStore(filepath.Join(t.TempDir(), "pages.db"), 256)
			if err != nil {
				t.Fatalf("NewFileStore: %v", err)
			}
			return fs
		},
		"bufferpool": func() Store {
			fs, err := NewFileStore(filepath.Join(t.TempDir(), "pool.db"), 256)
			if err != nil {
				t.Fatalf("NewFileStore: %v", err)
			}
			return NewBufferPool(fs, 8)
		},
	}
}

func TestStoreRoundTrip(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()

			id, err := s.Allocate()
			if err != nil {
				t.Fatalf("Allocate: %v", err)
			}
			if id == base.NilPage {
				t.Fatal("Allocate returned the nil page")
			}
			out := make([]byte, s.PageSize())
			if err := s.Read(id, out); err != nil {
				t.Fatalf("Read fresh page: %v", err)
			}
			if !bytes.Equal(out, make([]byte, s.PageSize())) {
				t.Fatal("fresh page not zeroed")
			}

			in := make([]byte, s.PageSize())
			for i := range in {
				in[i] = byte(i * 7)
			}
			if err := s.Write(id, in); err != nil {
				t.Fatalf("Write: %v", err)
			}
			if err := s.Read(id, out); err != nil {
				t.Fatalf("Read: %v", err)
			}
			if !bytes.Equal(in, out) {
				t.Fatal("read back differs from written")
			}
		})
	}
}

func TestStoreBadPage(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			buf := make([]byte, s.PageSize())
			if err := s.Read(base.PageID(99), buf); err == nil {
				t.Fatal("Read of unallocated page must fail")
			}
			if err := s.Write(base.PageID(99), buf); err == nil {
				t.Fatal("Write of unallocated page must fail")
			}
			if err := s.Read(base.NilPage, buf); err == nil {
				t.Fatal("Read of nil page must fail")
			}
		})
	}
}

func TestStoreShortBuffer(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			id, _ := s.Allocate()
			if err := s.Read(id, make([]byte, 3)); err == nil {
				t.Fatal("short read buffer must fail")
			}
			if err := s.Write(id, make([]byte, 3)); err == nil {
				t.Fatal("short write buffer must fail")
			}
		})
	}
}

func TestStoreFreeAndReuse(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			id, _ := s.Allocate()
			in := make([]byte, s.PageSize())
			in[0] = 0xFF
			if err := s.Write(id, in); err != nil {
				t.Fatal(err)
			}
			if err := s.Free(id); err != nil {
				t.Fatalf("Free: %v", err)
			}
			if err := s.Free(id); err == nil {
				t.Fatal("double Free must fail")
			}
			buf := make([]byte, s.PageSize())
			if err := s.Read(id, buf); err == nil {
				t.Fatal("Read of freed page must fail")
			}
			id2, err := s.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			if id2 != id {
				t.Fatalf("expected freelist reuse: got %d want %d", id2, id)
			}
			if err := s.Read(id2, buf); err != nil {
				t.Fatal(err)
			}
			if buf[0] != 0 {
				t.Fatal("reused page not zeroed")
			}
		})
	}
}

func TestStorePagesCount(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			var ids []base.PageID
			for i := 0; i < 10; i++ {
				id, err := s.Allocate()
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			if got := s.Pages(); got != 10 {
				t.Fatalf("Pages = %d, want 10", got)
			}
			for _, id := range ids[:4] {
				if err := s.Free(id); err != nil {
					t.Fatal(err)
				}
			}
			if got := s.Pages(); got != 6 {
				t.Fatalf("Pages after frees = %d, want 6", got)
			}
		})
	}
}

func TestStoreClosed(t *testing.T) {
	s := NewMemStore(128)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	if err := s.Read(1, buf); err == nil {
		t.Fatal("Read after Close must fail")
	}
	if _, err := s.Allocate(); err == nil {
		t.Fatal("Allocate after Close must fail")
	}
}

// TestStoreConcurrentDistinctPages hammers distinct pages from many
// goroutines; run with -race this validates the latching scheme.
func TestStoreConcurrentDistinctPages(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			const workers = 8
			ids := make([]base.PageID, workers)
			for i := range ids {
				id, err := s.Allocate()
				if err != nil {
					t.Fatal(err)
				}
				ids[i] = id
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					in := make([]byte, s.PageSize())
					out := make([]byte, s.PageSize())
					for i := 0; i < 200; i++ {
						for j := range in {
							in[j] = byte(w*1000 + i)
						}
						if err := s.Write(ids[w], in); err != nil {
							t.Errorf("write: %v", err)
							return
						}
						if err := s.Read(ids[w], out); err != nil {
							t.Errorf("read: %v", err)
							return
						}
						if !bytes.Equal(in, out) {
							t.Errorf("worker %d iteration %d: torn page", w, i)
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// TestStoreNoTornReads checks the get/put indivisibility contract of the
// paper's model: concurrent whole-page writes never yield a mixed image.
func TestStoreNoTornReads(t *testing.T) {
	s := NewMemStore(512)
	defer s.Close()
	id, _ := s.Allocate()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, s.PageSize())
		v := byte(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := range buf {
				buf[i] = v
			}
			if err := s.Write(id, buf); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			v++
		}
	}()

	buf := make([]byte, s.PageSize())
	for i := 0; i < 2000; i++ {
		if err := s.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		first := buf[0]
		for j, b := range buf {
			if b != first {
				t.Fatalf("torn read at byte %d: %d != %d", j, b, first)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestBufferPoolWritebackAndFlush(t *testing.T) {
	pool := NewBufferPool(NewMemStore(128), 4)

	var ids []base.PageID
	for i := 0; i < 12; i++ {
		id, err := pool.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 128)
		buf[0] = byte(i + 1)
		if err := pool.Write(id, buf); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Capacity 4 < 12 pages: evictions must have written back.
	st := pool.Stats()
	if st.Evictions == 0 || st.Writebacks == 0 {
		t.Fatalf("expected evictions and writebacks, got %+v", st)
	}
	if st.Resident > 4 {
		t.Fatalf("resident %d exceeds capacity", st.Resident)
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	// All data must be readable via the pool (faulting from under).
	buf := make([]byte, 128)
	for i, id := range ids {
		if err := pool.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i+1) {
			t.Fatalf("page %d: got %d want %d", id, buf[0], i+1)
		}
	}
	// A repeated read of the most recent page must hit the cache.
	if err := pool.Read(ids[len(ids)-1], buf); err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.Hits == 0 {
		t.Fatal("expected some cache hits")
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

// Property: writing arbitrary page images round-trips on every store.
func TestStoreRoundTripProperty(t *testing.T) {
	s := NewMemStore(64)
	defer s.Close()
	id, _ := s.Allocate()
	f := func(img [64]byte) bool {
		if err := s.Write(id, img[:]); err != nil {
			return false
		}
		out := make([]byte, 64)
		if err := s.Read(id, out); err != nil {
			return false
		}
		return bytes.Equal(img[:], out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFileStoreSync(t *testing.T) {
	fs, err := NewFileStore(filepath.Join(t.TempDir(), "s.db"), 128)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, err := fs.Allocate(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
}
