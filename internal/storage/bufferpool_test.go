package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blinktree/internal/base"
)

// recorder wraps a Store and records the order of operations reaching
// it, so tests can assert write-back ordering, not just final content.
// onRead, when set, runs before each Read reaches the store and may
// block it or fail it.
type recorder struct {
	Store
	mu     sync.Mutex
	events []recEvent
	onRead func(id base.PageID) error
}

type recEvent struct {
	op string // "read", "write"
	id base.PageID
}

func (r *recorder) Read(id base.PageID, buf []byte) error {
	r.mu.Lock()
	r.events = append(r.events, recEvent{"read", id})
	r.mu.Unlock()
	if r.onRead != nil {
		if err := r.onRead(id); err != nil {
			return err
		}
	}
	return r.Store.Read(id, buf)
}

func (r *recorder) Write(id base.PageID, buf []byte) error {
	r.mu.Lock()
	r.events = append(r.events, recEvent{"write", id})
	r.mu.Unlock()
	return r.Store.Write(id, buf)
}

func (r *recorder) count(op string, id base.PageID) int {
	n := 0
	for _, e := range r.log() {
		if e.op == op && e.id == id {
			n++
		}
	}
	return n
}

func (r *recorder) log() []recEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]recEvent(nil), r.events...)
}

func pageContent(t *testing.T, size int, seed uint64) []byte {
	t.Helper()
	buf := make([]byte, size)
	binary.LittleEndian.PutUint64(buf, seed)
	return buf
}

func allocN(t *testing.T, st Store, n int) []base.PageID {
	t.Helper()
	ids := make([]base.PageID, n)
	for i := range ids {
		id, err := st.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// TestBufferPoolWritebackBeforeReuse pins the ordering recovery
// correctness leans on: a dirty frame's content reaches the underlying
// store before its frame is reused for another page.
func TestBufferPoolWritebackBeforeReuse(t *testing.T) {
	rec := &recorder{Store: NewMemStore(128)}
	pool := NewBufferPool(rec, 4)
	ids := allocN(t, pool, 11)

	// Fill the pool: ids[0..3] resident and clean (faulted by Read).
	buf := make([]byte, pool.PageSize())
	for _, id := range ids[:4] {
		if err := pool.Read(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	// Dirty ids[0]: the hit also earns frame 0 a second chance, which no
	// other frame has. The hand stands before frame 1.
	dirty := pageContent(t, pool.PageSize(), 0xD1127)
	if err := pool.Write(ids[0], dirty); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	rec.events = nil // only watch what eviction causes from here on
	rec.mu.Unlock()

	// Touch six new pages: frames 1, 2, 3 lose the clean ids[1..3], frame
	// 0 spends its second chance, frames 1, 2, 3 go round again. No
	// write-back yet.
	for _, id := range ids[4:10] {
		if err := pool.Read(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range rec.log() {
		if e.op == "write" {
			t.Fatalf("clean eviction caused write-back of page %d", e.id)
		}
	}

	// One more page evicts dirty ids[0]. Its write-back must appear in
	// the event log before the fault-in read that reuses the frame.
	if err := pool.Read(ids[10], buf); err != nil {
		t.Fatal(err)
	}
	events := rec.log()
	wrote, lastRead := -1, -1
	for i, e := range events {
		if e.op == "write" && e.id == ids[0] {
			wrote = i
		}
		if e.op == "read" && e.id == ids[10] {
			lastRead = i
		}
	}
	if wrote < 0 {
		t.Fatalf("dirty page %d never written back: %v", ids[0], events)
	}
	if lastRead < 0 || wrote > lastRead {
		t.Fatalf("write-back of %d at %d does not precede reuse read at %d: %v",
			ids[0], wrote, lastRead, events)
	}
	// And the content that landed must be the dirty content.
	got := make([]byte, rec.PageSize())
	if err := rec.Store.Read(ids[0], got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(dirty) {
		t.Fatal("written-back content is not the latest write")
	}

	st := pool.Stats()
	if st.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", st.Writebacks)
	}
	if st.Evictions < 4 {
		t.Fatalf("evictions = %d, want ≥ 4", st.Evictions)
	}
}

// TestBufferPoolOverwriteCoalesces: multiple writes to a resident page
// produce one write-back carrying the last content.
func TestBufferPoolOverwriteCoalesces(t *testing.T) {
	rec := &recorder{Store: NewMemStore(128)}
	pool := NewBufferPool(rec, 4)
	ids := allocN(t, pool, 1)
	var last []byte
	for i := 0; i < 10; i++ {
		last = pageContent(t, pool.PageSize(), uint64(i)+7)
		if err := pool.Write(ids[0], last); err != nil {
			t.Fatal(err)
		}
	}
	rec.mu.Lock()
	rec.events = nil
	rec.mu.Unlock()
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	writes := 0
	for _, e := range rec.log() {
		if e.op == "write" && e.id == ids[0] {
			writes++
		}
	}
	if writes != 1 {
		t.Fatalf("flush produced %d writes, want 1 (coalesced)", writes)
	}
	got := make([]byte, rec.PageSize())
	if err := rec.Store.Read(ids[0], got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(last) {
		t.Fatal("flushed content is not the last write")
	}
	// A second flush must be a no-op: the frame is clean now.
	rec.mu.Lock()
	rec.events = nil
	rec.mu.Unlock()
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(rec.log()) != 0 {
		t.Fatal("second flush rewrote clean frames")
	}
}

// TestBufferPoolFreeSkipsWriteback: freeing a dirty page drops its
// frame without writing dead content back.
func TestBufferPoolFreeSkipsWriteback(t *testing.T) {
	rec := &recorder{Store: NewMemStore(128)}
	pool := NewBufferPool(rec, 4)
	ids := allocN(t, pool, 1)
	if err := pool.Write(ids[0], pageContent(t, pool.PageSize(), 99)); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	rec.events = nil
	rec.mu.Unlock()
	if err := pool.Free(ids[0]); err != nil {
		t.Fatal(err)
	}
	for _, e := range rec.log() {
		if e.op == "write" {
			t.Fatalf("free caused write-back: %v", e)
		}
	}
}

// TestBufferPoolConcurrentWriteback hammers a tiny pool from many
// goroutines — every operation evicts — and verifies that after a
// final flush the underlying store holds each page's last write.
// Run with -race, this is also the data-race probe for the
// eviction/write-back path recovery depends on.
func TestBufferPoolConcurrentWriteback(t *testing.T) {
	under := NewMemStore(128)
	pool := NewBufferPool(under, 4)
	const workers = 8
	const pagesPer = 8
	const rounds = 200
	ids := allocN(t, pool, workers*pagesPer)

	var wg sync.WaitGroup
	finals := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := ids[w*pagesPer : (w+1)*pagesPer]
			finals[w] = make([]uint64, pagesPer)
			buf := make([]byte, pool.PageSize())
			for r := 0; r < rounds; r++ {
				p := (r*7 + w) % pagesPer
				seed := uint64(w)<<32 | uint64(r)
				binary.LittleEndian.PutUint64(buf, seed)
				if err := pool.Write(mine[p], buf); err != nil {
					t.Error(err)
					return
				}
				finals[w][p] = seed
				// Interleave reads of a neighbour's page to force
				// cross-goroutine frame churn.
				other := ids[((w+1)%workers)*pagesPer+p]
				if err := pool.Read(other, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, under.PageSize())
	for w := 0; w < workers; w++ {
		for p := 0; p < pagesPer; p++ {
			id := ids[w*pagesPer+p]
			if err := under.Read(id, buf); err != nil {
				t.Fatal(err)
			}
			if got := binary.LittleEndian.Uint64(buf); got != finals[w][p] {
				t.Fatalf("page %d: got %#x, want %#x", id, got, finals[w][p])
			}
		}
	}
	st := pool.Stats()
	if st.Evictions == 0 || st.Writebacks == 0 {
		t.Fatalf("expected churn, got %+v", st)
	}
	t.Log(fmt.Sprintf("pool churn: %+v", st))
}

// TestBufferPoolPinBlocksEviction fills a tiny pool around one pinned
// frame and verifies the pinned frame survives arbitrary churn: its
// bytes stay valid in place while every unpinned frame cycles out.
func TestBufferPoolPinnedNeverEvicted(t *testing.T) {
	rec := &recorder{Store: NewMemStore(128)}
	pool := NewBufferPool(rec, 4)
	ids := allocN(t, pool, 12)

	want := pageContent(t, pool.PageSize(), 0xCAFE)
	if err := pool.Write(ids[0], want); err != nil {
		t.Fatal(err)
	}
	fr, err := pool.Pin(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	// Churn through 3x the capacity: every other frame must cycle.
	buf := make([]byte, pool.PageSize())
	for _, id := range ids[1:] {
		if err := pool.Read(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	st := pool.Stats()
	if st.Evictions == 0 {
		t.Fatal("churn caused no evictions; the test is vacuous")
	}
	if st.Pinned != 1 || st.PinnedHighWater < 1 {
		t.Fatalf("pin accounting: %+v", st)
	}
	// The pinned page was never evicted: no write-back of it reached the
	// underlying store, and its frame bytes are still the dirty content.
	for _, e := range rec.log() {
		if e.op == "write" && e.id == ids[0] {
			t.Fatal("pinned dirty frame was written back (evicted?)")
		}
	}
	fr.RLock()
	got := string(fr.Data())
	fr.RUnlock()
	if got != string(want) {
		t.Fatal("pinned frame content changed under churn")
	}
	pool.Unpin(fr)
	if st := pool.Stats(); st.Pinned != 0 {
		t.Fatalf("pinned = %d after unpin, want 0", st.Pinned)
	}
	if err := pool.Close(); err != nil {
		t.Fatalf("close after clean unpin: %v", err)
	}
}

// TestBufferPoolAllPinnedExhausts: when every frame is pinned and stays
// pinned — a leaked pin — a miss must fail loudly once the bound has
// passed, instead of evicting someone's in-use frame or hanging.
func TestBufferPoolAllPinnedExhausts(t *testing.T) {
	pool := NewBufferPool(NewMemStore(128), 4)
	pool.exhaustedAfter = 50 * time.Millisecond
	ids := allocN(t, pool, 5)
	frames := make([]*Frame, 4)
	for i := 0; i < 4; i++ {
		fr, err := pool.Pin(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = fr
	}
	start := time.Now()
	if _, err := pool.Pin(ids[4]); err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("pin beyond capacity with all frames pinned: %v, want the exhausted error", err)
	}
	if waited := time.Since(start); waited < pool.exhaustedAfter {
		t.Fatalf("exhausted after %v, before the %v bound", waited, pool.exhaustedAfter)
	}
	if st := pool.Stats(); st.PinnedHighWater != 4 {
		t.Fatalf("pinned high water %d after exhaustion, want 4", st.PinnedHighWater)
	}
	buf := make([]byte, pool.PageSize())
	if err := pool.Read(ids[4], buf); err == nil {
		t.Fatal("read beyond capacity with all frames pinned succeeded")
	}
	frames[0].RLock() // latching a pinned frame must not deadlock the pool
	frames[0].RUnlock()
	for _, fr := range frames {
		pool.Unpin(fr)
	}
	if err := pool.Read(ids[4], buf); err != nil {
		t.Fatalf("read after unpin: %v", err)
	}
}

// TestBufferPoolUnpinWithoutPinPanics: releasing a pin that is not held
// is a caller bug the pool refuses to absorb.
func TestBufferPoolUnpinWithoutPinPanics(t *testing.T) {
	pool := NewBufferPool(NewMemStore(128), 4)
	ids := allocN(t, pool, 1)
	fr, err := pool.Pin(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(fr) // balanced
	defer func() {
		if recover() == nil {
			t.Fatal("double unpin did not panic")
		}
	}()
	pool.Unpin(fr) // double: must panic
}

// TestBufferPoolLeakedPinDetectedAtClose: a Pin never released is
// reported by Close, naming the page.
func TestBufferPoolLeakedPinDetectedAtClose(t *testing.T) {
	pool := NewBufferPool(NewMemStore(128), 4)
	ids := allocN(t, pool, 2)
	if _, err := pool.Pin(ids[1]); err != nil {
		t.Fatal(err)
	}
	err := pool.Close()
	if err == nil {
		t.Fatal("close with a leaked pin returned nil")
	}
	if want := fmt.Sprintf("pages [%d]", ids[1]); !strings.Contains(err.Error(), want) {
		t.Fatalf("leak error %q does not name the leaked page (%s)", err, want)
	}
}

// TestBufferPoolPrefetch: a prefetch hint faults the page in
// asynchronously, so the later demand access is a hit, and read-ahead
// never evicts a pinned frame to make room.
func TestBufferPoolPrefetch(t *testing.T) {
	pool := NewBufferPool(NewMemStore(128), 4)
	ids := allocN(t, pool, 6)
	pinned, err := pool.Pin(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[1:] {
		pool.Prefetch(id)
	}
	deadline := time.Now().Add(5 * time.Second)
	for pool.Stats().PrefetchLoads < uint64(len(ids)-1) {
		if time.Now().After(deadline) {
			t.Fatalf("prefetch loads stuck at %+v", pool.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	st := pool.Stats()
	if st.Prefetches < uint64(len(ids)-1) {
		t.Fatalf("prefetches = %d, want ≥ %d", st.Prefetches, len(ids)-1)
	}
	if st.Pinned != 1 {
		t.Fatalf("prefetch disturbed pin accounting: %+v", st)
	}
	// The last prefetched pages must now be demand hits.
	buf := make([]byte, pool.PageSize())
	before := pool.Stats()
	if err := pool.Read(ids[5], buf); err != nil {
		t.Fatal(err)
	}
	after := pool.Stats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("prefetched page was not a demand hit: before %+v after %+v", before, after)
	}
	pool.Unpin(pinned)
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

// waitForWaiter returns once a Pin is blocked waiting for a frame.
func waitForWaiter(t *testing.T, pool *BufferPool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for pool.waiters.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no Pin ever waited for a frame")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestBufferPoolExhaustionWaits: with every frame pinned, one more Pin
// blocks instead of failing; it proceeds as soon as one holder unpins,
// and gets base.ErrClosed if the pool closes instead.
func TestBufferPoolExhaustionWaits(t *testing.T) {
	const capacity = 4
	setup := func(t *testing.T) (*BufferPool, []base.PageID, []chan struct{}, *sync.WaitGroup) {
		pool := NewBufferPool(NewMemStore(128), capacity)
		ids := allocN(t, pool, capacity+1)
		// capacity goroutines each hold a pin until told to let go.
		var holders sync.WaitGroup
		pinned := make(chan struct{}, capacity)
		release := make([]chan struct{}, capacity)
		for i := 0; i < capacity; i++ {
			release[i] = make(chan struct{})
			holders.Add(1)
			go func(i int) {
				defer holders.Done()
				fr, err := pool.Pin(ids[i])
				if err != nil {
					t.Error(err)
					return
				}
				pinned <- struct{}{}
				<-release[i]
				pool.Unpin(fr)
			}(i)
		}
		for i := 0; i < capacity; i++ {
			<-pinned
		}
		return pool, ids, release, &holders
	}

	t.Run("unpin", func(t *testing.T) {
		pool, ids, release, holders := setup(t)
		got := make(chan error, 1)
		go func() {
			fr, err := pool.Pin(ids[capacity])
			if err == nil {
				pool.Unpin(fr)
			}
			got <- err
		}()
		waitForWaiter(t, pool)
		select {
		case err := <-got:
			t.Fatalf("Pin returned (%v) with every frame pinned", err)
		default:
		}
		close(release[2])
		if err := <-got; err != nil {
			t.Fatalf("Pin after an Unpin freed a frame: %v", err)
		}
		for i, ch := range release {
			if i != 2 {
				close(ch)
			}
		}
		holders.Wait()
		if err := pool.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	})

	t.Run("close", func(t *testing.T) {
		pool, ids, release, holders := setup(t)
		got := make(chan error, 1)
		go func() {
			_, err := pool.Pin(ids[capacity])
			got <- err
		}()
		waitForWaiter(t, pool)
		closed := make(chan error, 1)
		go func() { closed <- pool.Close() }()
		if err := <-got; !errors.Is(err, base.ErrClosed) {
			t.Fatalf("Pin woken by Close: %v, want ErrClosed", err)
		}
		// Close itself reports the four pins still held.
		if err := <-closed; err == nil || !strings.Contains(err.Error(), "leaked") {
			t.Fatalf("close with four pins held: %v", err)
		}
		for _, ch := range release {
			close(ch)
		}
		holders.Wait()
	})
}

// gate holds every Read of one page until it is opened, so a test can
// pile goroutines up behind one load.
type gate struct {
	id      base.PageID
	open    chan struct{}
	entered chan struct{} // one token per Read that reached the gate; room for every goroutine of a test
	err     error         // what a gated Read returns once the gate opens
}

func newGate(id base.PageID, err error) *gate {
	return &gate{id: id, open: make(chan struct{}), entered: make(chan struct{}, 64), err: err}
}

func (g *gate) onRead(id base.PageID) error {
	if id != g.id {
		return nil
	}
	g.entered <- struct{}{}
	<-g.open
	return g.err
}

// missTogether starts n goroutines that all Pin id while its load is
// held at the gate, opens the gate once the load is in flight and the
// rest have had time to queue behind it, and returns each Pin's error.
func missTogether(t *testing.T, pool *BufferPool, g *gate, n int) []error {
	t.Helper()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fr, err := pool.Pin(g.id)
			if err == nil {
				pool.Unpin(fr)
			}
			errs[i] = err
		}(i)
	}
	<-g.entered
	// The others are blocked on the loading frame's latch, or about to
	// be; nothing observable says so. The pause only makes the test
	// bite: a late arrival hits (or, after a failure, reads for itself).
	time.Sleep(20 * time.Millisecond)
	close(g.open)
	wg.Wait()
	return errs
}

// TestBufferPoolOneLoadPerPage: goroutines that miss on the same page
// at the same time wait for one load instead of each reading the page.
func TestBufferPoolOneLoadPerPage(t *testing.T) {
	rec := &recorder{Store: NewMemStore(128)}
	pool := NewBufferPool(rec, 4)
	ids := allocN(t, pool, 1)
	g := newGate(ids[0], nil)
	rec.onRead = g.onRead
	for i, err := range missTogether(t, pool, g, 8) {
		if err != nil {
			t.Fatalf("pin %d: %v", i, err)
		}
	}
	if n := rec.count("read", ids[0]); n != 1 {
		t.Fatalf("8 concurrent misses on one page caused %d reads, want 1", n)
	}
	if st := pool.Stats(); st.Hits+st.Misses != 8 || st.Misses == 0 || st.Pinned != 0 {
		t.Fatalf("lookup accounting after 8 pins: %+v", st)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBufferPoolFailedLoadReachesWaiters: when the one load fails, the
// error reaches every goroutine that waited on it, and the pool is left
// with no mapping, no pin and nothing to report at Close.
func TestBufferPoolFailedLoadReachesWaiters(t *testing.T) {
	rec := &recorder{Store: NewMemStore(128)}
	pool := NewBufferPool(rec, 4)
	ids := allocN(t, pool, 2)
	boom := errors.New("injected read failure")
	g := newGate(ids[0], boom)
	rec.onRead = g.onRead
	for i, err := range missTogether(t, pool, g, 8) {
		if !errors.Is(err, boom) {
			t.Fatalf("pin %d: %v, want the injected error", i, err)
		}
	}
	if pool.Peek(ids[0]) != nil {
		t.Fatal("a failed load left the page mapped")
	}
	if st := pool.Stats(); st.Pinned != 0 || st.Resident != 0 {
		t.Fatalf("a failed load left frames behind: %+v", st)
	}
	// The frame that failed is reusable, and the page loadable once the
	// store recovers.
	rec.onRead = nil
	buf := make([]byte, pool.PageSize())
	for _, id := range ids {
		if err := pool.Read(id, buf); err != nil {
			t.Fatalf("read page %d after the failure cleared: %v", id, err)
		}
	}
	if err := pool.Close(); err != nil {
		t.Fatalf("close after a failed load: %v", err)
	}
}

// TestBufferPoolWritebackPrecedesRefault: a page evicted dirty is not
// read back from the store before its write-back has landed. Each
// writer owns its pages and versions them; the store's Read hook checks
// that the store already holds every version the pool acknowledged, and
// each writer reads its own writes back exactly, through whatever
// eviction and re-fault happened in between.
func TestBufferPoolWritebackPrecedesRefault(t *testing.T) {
	const (
		workers  = 4
		pagesPer = 6
		rounds   = 400
	)
	under := NewMemStore(128)
	rec := &recorder{Store: under}
	pool := NewBufferPool(rec, 4)
	ids := allocN(t, pool, workers*pagesPer)
	acked := make([]atomic.Uint64, len(ids)+1) // by page id: last version Write returned for
	peek := make([]byte, under.PageSize())
	var peekMu sync.Mutex
	rec.onRead = func(id base.PageID) error {
		want := acked[id].Load()
		peekMu.Lock()
		defer peekMu.Unlock()
		if err := under.Read(id, peek); err != nil {
			return err
		}
		if got := binary.LittleEndian.Uint64(peek); got < want {
			return fmt.Errorf("page %d re-read at version %d while version %d is acknowledged", id, got, want)
		}
		return nil
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := ids[w*pagesPer : (w+1)*pagesPer]
			version := make([]uint64, pagesPer)
			buf := make([]byte, pool.PageSize())
			for r := 0; r < rounds; r++ {
				p := (r*5 + w) % pagesPer
				version[p]++
				binary.LittleEndian.PutUint64(buf, version[p])
				if err := pool.Write(mine[p], buf); err != nil {
					t.Error(err)
					return
				}
				acked[mine[p]].Store(version[p])
				q := (r*7 + 3) % pagesPer
				if err := pool.Read(mine[q], buf); err != nil {
					t.Error(err)
					return
				}
				if got := binary.LittleEndian.Uint64(buf); got != version[q] {
					t.Errorf("page %d: read version %d after writing %d", mine[q], got, version[q])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := pool.Stats(); st.Evictions == 0 || st.Writebacks == 0 {
		t.Fatalf("no churn, the test is vacuous: %+v", st)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestZeroAllocPoolPinHit: Pin and Unpin of a resident page allocate
// nothing, and neither does the miss path once every frame exists.
func TestZeroAllocPoolPinHit(t *testing.T) {
	pool := NewBufferPool(NewMemStore(128), 8)
	defer pool.Close()
	ids := allocN(t, pool, 32)
	buf := make([]byte, pool.PageSize())
	for _, id := range ids {
		if err := pool.Write(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	resident := ids[len(ids)-1]
	if a := testing.AllocsPerRun(1000, func() {
		fr, err := pool.Pin(resident)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(fr)
	}); a != 0 {
		t.Fatalf("Pin+Unpin of a resident page allocates %v times", a)
	}
	i := 0
	if a := testing.AllocsPerRun(1000, func() {
		fr, err := pool.Pin(ids[i%len(ids)]) // 32 pages round-robin over 8 frames: every Pin misses
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(fr)
		i++
	}); a != 0 {
		t.Fatalf("a miss on a full pool allocates %v times: frames and buffers are recycled", a)
	}
}

// BenchmarkPoolPinParallel pins and unpins resident pages from every P.
// There is no pool-wide lock or counter on that path, so ns/op should
// not rise with -cpu.
func BenchmarkPoolPinParallel(b *testing.B) {
	const pages = 4096
	pool := NewBufferPool(NewMemStore(DefaultPageSize), 2*pages)
	defer pool.Close()
	ids := make([]base.PageID, pages)
	buf := make([]byte, pool.PageSize())
	for i := range ids {
		id, err := pool.Allocate()
		if err != nil {
			b.Fatal(err)
		}
		if err := pool.Write(id, buf); err != nil {
			b.Fatal(err)
		}
		ids[i] = id
	}
	var seed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		x := seed.Add(1) * 0x9E3779B97F4A7C15
		for pb.Next() {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			fr, err := pool.Pin(ids[x%pages])
			if err != nil {
				b.Error(err)
				return
			}
			pool.Unpin(fr)
		}
	})
}

// TestBufferPoolChurnPinIsOfThePageAsked: 64 pages share 8 frames while
// writers Write rising versions of their own pages and readers Pin
// random pages, so frames are recycled from page to page under every
// lookup. A Pin returns a frame that holds the page asked for — by its
// ID and by its bytes — at a version no older than the same reader last
// saw. More Ps than cores, so that the kernel suspends lookups half way.
// Run under -race.
//
// Mutation-checked: without the frame.id re-validation after Pin's
// increment it fails (a frame of another page); see CHANGES.md.
func TestBufferPoolChurnPinIsOfThePageAsked(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(16))
	const (
		frames  = 8
		pages   = 64
		writers = 4
		readers = 12
		rounds  = 40000
	)
	pool := NewBufferPool(NewMemStore(128), frames)
	ids := allocN(t, pool, pages)
	image := func(buf []byte, id base.PageID, version uint64) {
		binary.LittleEndian.PutUint64(buf, version)
		binary.LittleEndian.PutUint64(buf[8:], uint64(id))
		binary.LittleEndian.PutUint64(buf[len(buf)-8:], version)
	}
	buf := make([]byte, pool.PageSize())
	for _, id := range ids {
		image(buf, id, 1)
		if err := pool.Write(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	var done atomic.Bool
	var rwg, wwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			seen := make([]uint64, pages)
			x := uint64(r+1) * 0x9E3779B97F4A7C15
			for !done.Load() {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				i := x % pages
				fr, err := pool.Pin(ids[i])
				if err != nil {
					t.Errorf("Pin(%d): %v", ids[i], err)
					return
				}
				fr.RLock()
				d := fr.Data()
				version, of, tail := binary.LittleEndian.Uint64(d), binary.LittleEndian.Uint64(d[8:]), binary.LittleEndian.Uint64(d[len(d)-8:])
				fr.RUnlock()
				held := fr.ID()
				pool.Unpin(fr)
				if held != ids[i] || of != uint64(ids[i]) || version != tail {
					t.Errorf("Pin(%d) returned a frame of page %d holding page %d at versions %d/%d", ids[i], held, of, version, tail)
					return
				}
				if version < seen[i] {
					t.Errorf("Pin(%d) went back from version %d to %d", ids[i], seen[i], version)
					return
				}
				seen[i] = version
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			per := pages / writers
			mine := ids[w*per : (w+1)*per]
			version := make([]uint64, per)
			for i := range version {
				version[i] = 1 // what every page starts at
			}
			buf := make([]byte, pool.PageSize())
			for r := 0; r < rounds; r++ {
				i := (r*7 + w) % per
				version[i]++
				image(buf, mine[i], version[i])
				if err := pool.Write(mine[i], buf); err != nil {
					t.Errorf("Write(%d): %v", mine[i], err)
					return
				}
			}
		}(w)
	}
	wwg.Wait()
	done.Store(true)
	rwg.Wait()
	if st := pool.Stats(); st.Evictions == 0 || st.Hits == 0 || st.Pinned != 0 {
		t.Fatalf("no churn, or pins outstanding at rest: %+v", st)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBufferPoolFreeWhilePinnedDefers: a Free that finds its page pinned
// succeeds at once, unmaps the page and leaves the underlying free to
// the last Unpin; the pin holder's frame stays valid until then.
func TestBufferPoolFreeWhilePinnedDefers(t *testing.T) {
	under := NewMemStore(128)
	pool := NewBufferPool(under, 4)
	ids := allocN(t, pool, 2)
	want := pageContent(t, pool.PageSize(), 0xF4EE)
	if err := pool.Write(ids[0], want); err != nil {
		t.Fatal(err)
	}
	a, err := pool.Pin(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.Pin(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Free(ids[0]); err != nil {
		t.Fatalf("free of a pinned page: %v", err)
	}
	if pool.Peek(ids[0]) != nil {
		t.Fatal("a freed page is still mapped")
	}
	if got := under.Pages(); got != 2 {
		t.Fatalf("store holds %d pages while the freed one is pinned, want 2", got)
	}
	a.RLock()
	got := string(a.Data())
	a.RUnlock()
	if a.ID() != ids[0] || got != string(want) {
		t.Fatal("the pinned frame changed under a Free")
	}
	pool.Unpin(a)
	if got := under.Pages(); got != 2 {
		t.Fatalf("store holds %d pages with one pin still out, want 2", got)
	}
	pool.Unpin(b)
	if got := under.Pages(); got != 1 {
		t.Fatalf("store holds %d pages after the last Unpin, want 1", got)
	}
	if st := pool.Stats(); st.Pinned != 0 || st.Resident != 0 {
		t.Fatalf("the doomed frame was not emptied: %+v", st)
	}
	buf := make([]byte, pool.PageSize())
	if err := pool.Read(ids[0], buf); err == nil {
		t.Fatal("read of a freed page succeeded")
	}
	if err := pool.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
