package storage

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"blinktree/internal/base"
	"blinktree/internal/pagedir"
)

// FileStore keeps pages in a single file, page id N occupying byte range
// [(N-1)*PageSize, N*PageSize). A sharded latch makes Read/Write of a
// page mutually atomic; distinct pages proceed in parallel via ReadAt /
// WriteAt. Allocation metadata lives in memory only: FileStore is a
// substrate for the paged tree, not a full recovery story (the module
// offers Snapshot/Load persistence at the tree layer instead).
type FileStore struct {
	pageSize int
	f        *os.File
	free     *freelist
	zero     []byte // one page of zeros, only ever read
	closed   atomic.Bool

	// syncWrites makes every page write fsync before returning (the
	// per-write durability regime); writes/syncs count activity either
	// way so callers can see what the option costs.
	syncWrites    atomic.Bool
	writes, syncs atomic.Uint64

	alloc pagedir.Dir[atomic.Bool] // the page is allocated: one flag per id, no lock to test it
	pages atomic.Int64             // flags set
	latch [shardCount]sync.RWMutex
}

// NewFileStore creates or truncates path and returns an empty file store.
func NewFileStore(path string, pageSize int) (*FileStore, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	return &FileStore{
		pageSize: pageSize,
		f:        f,
		free:     newFreelist(),
		zero:     make([]byte, pageSize),
	}, nil
}

// PageSize implements Store.
func (s *FileStore) PageSize() int { return s.pageSize }

func (s *FileStore) allocated(id base.PageID) bool {
	flag := s.alloc.At(id)
	return flag != nil && flag.Load()
}

// Read implements Store.
func (s *FileStore) Read(id base.PageID, buf []byte) error {
	if s.closed.Load() {
		return base.ErrClosed
	}
	if err := checkBuf(s.pageSize, buf); err != nil {
		return err
	}
	if !s.allocated(id) {
		return fmt.Errorf("%w: %d", ErrBadPage, id)
	}
	l := &s.latch[shardOf(id)]
	l.RLock()
	_, err := s.f.ReadAt(buf, int64(id-1)*int64(s.pageSize))
	l.RUnlock()
	if err != nil {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	return nil
}

// Write implements Store.
func (s *FileStore) Write(id base.PageID, buf []byte) error {
	if s.closed.Load() {
		return base.ErrClosed
	}
	if err := checkBuf(s.pageSize, buf); err != nil {
		return err
	}
	if !s.allocated(id) {
		return fmt.Errorf("%w: %d", ErrBadPage, id)
	}
	l := &s.latch[shardOf(id)]
	l.Lock()
	s.writes.Add(1)
	_, err := s.f.WriteAt(buf, int64(id-1)*int64(s.pageSize))
	if err == nil && s.syncWrites.Load() {
		s.syncs.Add(1)
		err = s.f.Sync()
	}
	l.Unlock()
	if err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	return nil
}

// SetSyncWrites toggles fsync-on-write: when on, Write returns only
// after the page is on stable storage, making each page write
// individually durable (the paper's indivisible put taken literally)
// at the cost of one fsync per write. Off by default; most durable
// deployments want the WAL's group commit instead and leave page
// writes to accumulate between checkpoints.
func (s *FileStore) SetSyncWrites(on bool) { s.syncWrites.Store(on) }

// FileStoreStats counts page write attempts and the fsyncs attempted
// for them (both count even when the underlying call fails, so the
// cost of the option is visible either way).
type FileStoreStats struct {
	Writes uint64
	Syncs  uint64
}

// Stats returns a snapshot of write/sync counters.
func (s *FileStore) Stats() FileStoreStats {
	return FileStoreStats{Writes: s.writes.Load(), Syncs: s.syncs.Load()}
}

// Allocate implements Store.
func (s *FileStore) Allocate() (base.PageID, error) {
	if s.closed.Load() {
		return base.NilPage, base.ErrClosed
	}
	id := s.free.alloc()
	l := &s.latch[shardOf(id)]
	l.Lock()
	_, err := s.f.WriteAt(s.zero, int64(id-1)*int64(s.pageSize))
	l.Unlock()
	if err != nil {
		s.free.free(id)
		return base.NilPage, fmt.Errorf("storage: zero page %d: %w", id, err)
	}
	s.alloc.Ensure(id).Store(true)
	s.pages.Add(1)
	return id, nil
}

// Free implements Store.
func (s *FileStore) Free(id base.PageID) error {
	if s.closed.Load() {
		return base.ErrClosed
	}
	if flag := s.alloc.At(id); flag == nil || !flag.CompareAndSwap(true, false) {
		return fmt.Errorf("%w: %d", ErrBadPage, id)
	}
	s.pages.Add(-1)
	s.free.free(id)
	return nil
}

// Pages implements Store.
func (s *FileStore) Pages() int { return int(s.pages.Load()) }

// Close implements Store.
func (s *FileStore) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	return s.f.Close()
}

// Sync flushes file contents to stable storage.
func (s *FileStore) Sync() error {
	if s.closed.Load() {
		return base.ErrClosed
	}
	return s.f.Sync()
}
