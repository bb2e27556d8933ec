package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"blinktree/internal/base"
	"blinktree/internal/pagedir"
)

// ExhaustedAfter is how long a Pin that finds every frame pinned waits
// for an Unpin before it fails with the "exhausted" error. Pins span a
// decode, an encode or one page transfer, so a wait this long means a
// pin was leaked, and an error is more useful than a hang.
const ExhaustedAfter = 5 * time.Second

// BufferPool is a bounded write-back page cache layered over another
// Store — the disk-native serving path. It keeps at most capacity page
// frames resident, evicts by the clock (second-chance) policy skipping
// pinned frames, and writes a dirty frame back before the frame is
// reused, so every page is always either resident or re-fetchable.
//
// The Store methods (Read/Write) copy whole pages in and out. Pin/Unpin
// hand out *Frame handles for zero-copy access, and Peek finds a
// resident frame without pinning it. There is no pool-wide lock: a
// lookup indexes the page directory and writes the frame it finds (Pin)
// or one striped counter (Peek+Touch); a miss claims one victim frame
// and does its page transfers under that frame's latch only. doc.go has
// the protocol in full.
type BufferPool struct {
	// Set at construction, written once (closed, crashed) or only around
	// an exhaustion wait (waiters): the lines a hit reads.
	under          Store
	pageSize       int
	capacity       int
	exhaustedAfter time.Duration
	frames         []atomic.Pointer[Frame] // the clock; [:nframes] exist
	table          pagedir.Dir[pageSlot]
	closed         atomic.Bool
	crashed        atomic.Bool // severed from under; see Crash
	waiters        atomic.Int32

	_ [64]byte // what follows is written by every miss

	nframes         atomic.Int32
	hand            atomic.Uint32
	evictions       atomic.Uint64
	writebacks      atomic.Uint64
	pinnedHighWater atomic.Int64
	prefetches      atomic.Uint64
	prefetchLoads   atomic.Uint64

	mu      sync.Mutex // serialises nothing but the wait for a frame
	freed   sync.Cond  // a frame may have become claimable; L is &mu
	freeErr error      // first failure of a Free deferred past a pin

	// touches counts pinless hits (Pin counts on the frame it has just
	// written anyway), striped by frame so no line takes them all.
	touches [8]struct {
		hits atomic.Uint64
		_    [56]byte
	}

	prefetchCh   chan base.PageID
	prefetchQuit chan struct{}
	prefetchDone chan struct{}
}

var errCrashed = fmt.Errorf("storage: buffer pool crashed: %w", base.ErrClosed)

// pageSlot is a page's entry in the directory.
type pageSlot struct {
	// frame holds the page or is being loaded with it; nil when the
	// page is not resident. Storing it from nil elects a page's loader.
	frame atomic.Pointer[Frame]
	// live: the page is known to be allocated underneath (Allocate and
	// a successful fault-in set it, Free clears it), so an overwrite
	// need not read it first to learn that it exists.
	live atomic.Bool
}

// A frame's state word is its pin count, or the count with doomed set,
// or claimed.
const (
	pinMask = 1<<24 - 1
	// doomed: Free found the frame pinned. The page is unmapped and
	// nobody new may pin; the last Unpin empties the frame and runs the
	// underlying Free.
	doomed = 1 << 24
	// claimed: one goroutine owns the frame — an evictor loading a page
	// into it, or Free emptying it. Only a zero state can be claimed.
	claimed = -1 << 30
)

// Frame is one page buffer of the pool, recycled from page to page for
// the pool's whole life. Who may write what:
//
//   - state: pinners add to the count by compare-and-swap and Unpin
//     subtracts, while it is not claimed.
//   - id and the directory mapping change only under a claim with the
//     latch held exclusively: a pin fixes them, and so does the latch.
//   - data belongs to pin holders under the latch: RLock to read or
//     decode, Lock to mutate or encode, MarkDirty after mutating,
//     unlatch before Unpin. The pool latches without a pin only to
//     write the bytes back (shared) or on a frame it has claimed.
//   - ref, dirty, obj, hits and misses are atomic words anyone may set.
type Frame struct {
	state  atomic.Int32
	id     atomic.Uint32 // base.PageID; NilPage when the frame holds no page
	ref    atomic.Bool   // the clock's second chance
	dirty  atomic.Bool
	hits   atomic.Uint64  // lookups Pin served from this frame, ever
	obj    unsafe.Pointer // see CachedObject
	latch  sync.RWMutex
	data   []byte
	misses atomic.Uint64
	// The last failed load into this frame, for those who waited on the
	// latch for that page. Guarded by the latch.
	errID base.PageID
	err   error

	_ [16]byte // to 128 bytes on 64-bit targets: one frame, its own cache lines
}

// ID returns the page this frame holds.
func (f *Frame) ID() base.PageID { return base.PageID(f.id.Load()) }

// Data returns the frame's page image. Access it only while pinned and
// holding the latch (RLock to read, Lock to write).
func (f *Frame) Data() []byte { return f.data }

// Lock and Unlock take and release the frame latch exclusively (for
// in-place encodes), RLock and RUnlock shared (for reads and decodes).
func (f *Frame) Lock()    { f.latch.Lock() }
func (f *Frame) Unlock()  { f.latch.Unlock() }
func (f *Frame) RLock()   { f.latch.RLock() }
func (f *Frame) RUnlock() { f.latch.RUnlock() }

// MarkDirty records that Data was mutated, scheduling write-back on
// eviction or Flush. Call while holding the exclusive latch.
func (f *Frame) MarkDirty() { f.dirty.Store(true) }

// CachedObject returns the decoded object cached on f, or nil. T must
// be the one type the pool's user caches: the frame holds the pointer
// untyped, since storage cannot name the node type above it. Under a
// pin the object describes the pinned page. On a frame from Peek it may
// be another page's by now — the caller checks what the object says.
func CachedObject[T any](f *Frame) *T { return (*T)(atomic.LoadPointer(&f.obj)) }

// SetCachedObject caches the decoded object for the frame's current
// content. Call only while pinned and holding the latch (either mode),
// right after decoding from or encoding into Data, so the object can
// never describe bytes other than the frame's.
func SetCachedObject[T any](f *Frame, v *T) { atomic.StorePointer(&f.obj, unsafe.Pointer(v)) }

func (f *Frame) clearCachedObject() { atomic.StorePointer(&f.obj, nil) }

// settled waits until the goroutine that claimed f lets go of its
// latch, and returns that claim's error if it was a failed load of id.
func (f *Frame) settled(id base.PageID) error {
	f.latch.RLock()
	defer f.latch.RUnlock()
	if f.errID == id {
		return f.err
	}
	return nil
}

// NewBufferPool wraps under with a bounded pool of capacity page
// frames (minimum 4) and starts its read-ahead worker. Frames and their
// buffers are created as misses first need them, so a pool larger than
// the data set costs only the data set.
func NewBufferPool(under Store, capacity int) *BufferPool {
	if capacity < 4 {
		capacity = 4
	}
	p := &BufferPool{
		under:          under,
		pageSize:       under.PageSize(),
		capacity:       capacity,
		exhaustedAfter: ExhaustedAfter,
		frames:         make([]atomic.Pointer[Frame], capacity),
		prefetchCh:     make(chan base.PageID, 64), // hints a scan may run ahead of the worker; more are dropped
		prefetchQuit:   make(chan struct{}),
		prefetchDone:   make(chan struct{}),
	}
	p.freed.L = &p.mu
	go p.prefetcher()
	return p
}

// PageSize implements Store.
func (p *BufferPool) PageSize() int { return p.pageSize }

// Pin returns the frame holding id, faulting it in on a miss, and
// guarantees the frame stays resident and bound to id until the
// matching Unpin. Every Pin must be paired with exactly one Unpin. When
// every frame is pinned Pin waits for an Unpin, up to ExhaustedAfter.
func (p *BufferPool) Pin(id base.PageID) (*Frame, error) { return p.pin(id, false) }

// PinOverwrite is Pin for a caller about to replace the whole page: the
// frame comes back pinned with its latch held exclusively, and a miss
// does not read the page it is about to lose, so Data is unspecified.
// The caller fills all of Data, then MarkDirty, Unlock and Unpin.
func (p *BufferPool) PinOverwrite(id base.PageID) (*Frame, error) { return p.pin(id, true) }

func (p *BufferPool) pin(id base.PageID, overwrite bool) (*Frame, error) {
	missed := false
	for {
		if p.closed.Load() {
			return nil, base.ErrClosed
		}
		slot := p.table.At(id)
		var fr *Frame
		if slot != nil {
			fr = slot.frame.Load()
		}
		if fr == nil {
			missed = true
			fr, err := p.load(id, slot, overwrite, true)
			if fr == nil && err == nil {
				continue // another goroutine mapped id first
			}
			if fr != nil {
				fr.misses.Add(1)
			}
			return fr, err
		}
		switch s := fr.state.Load(); {
		case s < 0:
			// Being loaded, evicted or emptied; the claimant holds the
			// latch until it is done. Then look again.
			if err := fr.settled(id); err != nil {
				return nil, err
			}
			missed = true
		case s&doomed != 0:
			// Free is unmapping the page this instant.
		case fr.state.CompareAndSwap(s, s+1):
			// The frame may have been recycled between the directory
			// load and the increment. The pin now fixes its id: check it.
			if fr.ID() != id {
				p.Unpin(fr)
				continue
			}
			if missed {
				fr.misses.Add(1)
			} else {
				fr.hits.Add(1)
			}
			if !fr.ref.Load() {
				fr.ref.Store(true)
			}
			if overwrite {
				fr.latch.Lock()
			}
			return fr, nil
		}
	}
}

// Unpin releases one pin on fr. Unpinning a frame that holds no pin —
// a double unpin, or an unpin that was never paired with a Pin — is a
// caller bug that would let the pool evict a frame still in use, so it
// panics rather than corrupting silently.
func (p *BufferPool) Unpin(fr *Frame) {
	if err := p.unpin(fr); err != nil {
		p.mu.Lock()
		if p.freeErr == nil {
			p.freeErr = err
		}
		p.mu.Unlock()
	}
}

// unpin is Unpin, returning the error of the deferred Free it ran, if
// fr was doomed and this was its last pin.
func (p *BufferPool) unpin(fr *Frame) error {
	s := fr.state.Add(-1)
	if s < 0 || s&pinMask == pinMask {
		fr.state.Add(1)
		panic(fmt.Sprintf("storage: unpin of page %d with no outstanding pin", fr.ID()))
	}
	if s == doomed {
		// Nobody can pin or claim a doomed frame: it is ours to empty.
		id := fr.ID()
		fr.state.Store(claimed)
		fr.latch.Lock()
		p.empty(fr)
		if !p.crashed.Load() {
			return p.under.Free(id)
		}
	} else if s == 0 && p.waiters.Load() > 0 {
		p.wake()
	}
	return nil
}

// Peek returns the frame that holds id without pinning it, or nil. The
// frame can be recycled for another page at any moment, so all a caller
// may do with it is load its cached object, check that the object is
// page id's, and report the hit with Touch.
func (p *BufferPool) Peek(id base.PageID) *Frame {
	if slot := p.table.At(id); slot != nil {
		return slot.frame.Load()
	}
	return nil
}

// Touch records a lookup that fr's cached object served without a pin:
// it counts a hit and gives the frame its second chance — writing the
// reference bit only when it is clear, so a hot page's frame stays a
// line nothing writes.
func (p *BufferPool) Touch(fr *Frame) {
	if !fr.ref.Load() {
		fr.ref.Store(true)
	}
	// Frames are 128 bytes apart: these are the bits that tell them apart.
	p.touches[(uintptr(unsafe.Pointer(fr))>>7)%uintptr(len(p.touches))].hits.Add(1)
}

// load claims a frame, maps id to it and fills it from the store — or
// leaves that to the caller, when overwrite is set and the page is
// known to exist. A demand load waits for a frame if all are pinned and
// returns the frame pinned once, still latched exclusively if
// overwrite. A read-ahead load (!demand) gives up with (nil, nil) when
// no frame can be claimed now, and leaves the page unpinned. Both
// return (nil, nil) when another goroutine mapped id first. The page
// transfers run under the claimed frame's latch and no other lock.
func (p *BufferPool) load(id base.PageID, slot *pageSlot, overwrite, demand bool) (*Frame, error) {
	if slot == nil {
		// No Allocate of this pool handed id out: the store vouches for
		// the page before the directory grows to it.
		if err := p.under.Read(id, make([]byte, p.pageSize)); err != nil {
			return nil, err
		}
		slot = p.table.Ensure(id)
	}
	fr, err := p.victim(demand)
	if fr == nil {
		return nil, err
	}
	fr.latch.Lock()
	if p.crashed.Load() {
		p.release(fr)
		return nil, errCrashed
	}
	if !slot.frame.CompareAndSwap(nil, fr) {
		p.release(fr) // untouched: it still holds its page
		return nil, nil
	}
	// Waiters for id now queue on the latch. The victim's page stays
	// mapped to this frame until its bytes have landed, so nobody can
	// fault the stale image back in from the store.
	if old := fr.ID(); old != base.NilPage {
		if fr.dirty.Load() {
			if err := p.under.Write(old, fr.data); err != nil {
				slot.frame.Store(nil)
				p.release(fr)
				return nil, fmt.Errorf("storage: writeback page %d: %w", old, err)
			}
			fr.dirty.Store(false)
			p.writebacks.Add(1)
		}
		// The cached object goes before the mapping: once the page can
		// be resident elsewhere, no Peek may find its old object here.
		fr.clearCachedObject()
		p.table.At(old).frame.CompareAndSwap(fr, nil)
		p.evictions.Add(1)
	}
	fr.errID, fr.err = base.NilPage, nil
	fr.id.Store(uint32(id))
	if !overwrite || !slot.live.Load() {
		if err := p.under.Read(id, fr.data); err != nil {
			fr.errID, fr.err = id, err
			slot.frame.Store(nil)
			p.empty(fr)
			return nil, err
		}
		slot.live.Store(true)
	}
	fr.ref.Store(false) // a second chance is earned by a hit, not by arriving
	if !demand {
		p.release(fr)
		return fr, nil
	}
	fr.state.Store(1)
	if !overwrite {
		fr.latch.Unlock()
	}
	return fr, nil
}

// victim claims a frame for a load. When every frame is pinned it
// returns nil if !wait, and otherwise blocks until an Unpin frees one,
// the pool closes, or exhaustedAfter passes.
func (p *BufferPool) victim(wait bool) (*Frame, error) {
	if fr := p.sweep(); fr != nil || !wait {
		return fr, nil
	}
	deadline := time.Now().Add(p.exhaustedAfter)
	timer := time.AfterFunc(p.exhaustedAfter, p.wake)
	defer timer.Stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	// Registering before the sweep below is what makes the wait safe:
	// an Unpin either sees the waiter, or its frame is seen by the sweep.
	p.waiters.Add(1)
	defer p.waiters.Add(-1)
	for {
		if p.closed.Load() {
			return nil, base.ErrClosed
		}
		if fr := p.sweep(); fr != nil {
			return fr, nil
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("storage: buffer pool exhausted: all %d frames pinned for %v", p.capacity, p.exhaustedAfter)
		}
		p.freed.Wait()
	}
}

func (p *BufferPool) wake() {
	p.mu.Lock()
	p.freed.Broadcast()
	p.mu.Unlock()
}

// sweep claims a frame — a new one while the pool is below capacity,
// else the clock's choice — or reports that a whole turn of the hand
// met none unpinned. A frame hit since the hand last passed gets a
// second chance, for two turns: hits cannot hold the hand off for ever.
// The pinned frames one turn passes feed the high-water mark.
func (p *BufferPool) sweep() *Frame {
	for n := p.nframes.Load(); int(n) < p.capacity; n = p.nframes.Load() {
		if p.nframes.CompareAndSwap(n, n+1) {
			fr := &Frame{data: make([]byte, p.pageSize)}
			fr.state.Store(claimed)
			p.frames[n].Store(fr)
			return fr
		}
	}
	for turn := 0; ; turn++ {
		pinned, unpinned := 0, false
		for i := 0; i < p.capacity; i++ {
			fr := p.frames[p.hand.Add(1)%uint32(p.capacity)].Load()
			if fr == nil {
				continue
			}
			if s := fr.state.Load(); s != 0 {
				if s > 0 {
					pinned++
				}
				continue
			}
			unpinned = true
			if turn < 2 && fr.ref.Load() {
				fr.ref.Store(false)
			} else if fr.state.CompareAndSwap(0, claimed) {
				p.notePinned(pinned + 1) // and this one, about to be
				return fr
			}
		}
		p.notePinned(pinned)
		if !unpinned {
			return nil
		}
	}
}

// notePinned raises the high-water mark to n frames seen pinned.
func (p *BufferPool) notePinned(n int) {
	for hw := p.pinnedHighWater.Load(); int64(n) > hw && !p.pinnedHighWater.CompareAndSwap(hw, int64(n)); {
		hw = p.pinnedHighWater.Load()
	}
}

// release gives up a claimed, latched frame as it stands.
func (p *BufferPool) release(fr *Frame) {
	fr.state.Store(0)
	fr.latch.Unlock()
	if p.waiters.Load() > 0 {
		p.wake()
	}
}

// empty releases a claimed, latched frame whose content is dead (a
// freed page, a failed load): nothing is written back. The caller has
// unmapped it.
func (p *BufferPool) empty(fr *Frame) {
	fr.clearCachedObject()
	fr.id.Store(uint32(base.NilPage))
	fr.dirty.Store(false)
	fr.ref.Store(false)
	p.release(fr)
}

// Prefetch schedules a best-effort asynchronous fault-in of id, so a
// sequential scan's next leaf is resident by the time the scan hops to
// it. It never blocks: when the read-ahead queue is full the hint is
// dropped. Errors (e.g. a page freed between hint and fetch) are
// swallowed — the demand fetch will surface anything real.
func (p *BufferPool) Prefetch(id base.PageID) {
	p.prefetches.Add(1)
	select {
	case p.prefetchCh <- id:
	default:
	}
}

// prefetcher drains the read-ahead queue through the load path a
// demand miss takes, except that it neither waits for a frame — a hint
// is not worth more than a pinned page — nor pins the one it fills.
func (p *BufferPool) prefetcher() {
	defer close(p.prefetchDone)
	for {
		select {
		case <-p.prefetchQuit:
			return
		case id := <-p.prefetchCh:
			if p.closed.Load() || p.Peek(id) != nil {
				continue
			}
			if fr, _ := p.load(id, p.table.At(id), false, false); fr != nil {
				p.prefetchLoads.Add(1)
			}
		}
	}
}

// Read implements Store.
func (p *BufferPool) Read(id base.PageID, buf []byte) error {
	if err := checkBuf(p.pageSize, buf); err != nil {
		return err
	}
	fr, err := p.Pin(id)
	if err != nil {
		return err
	}
	fr.RLock()
	copy(buf, fr.data)
	fr.RUnlock()
	p.Unpin(fr)
	return nil
}

// Write implements Store.
func (p *BufferPool) Write(id base.PageID, buf []byte) error {
	if err := checkBuf(p.pageSize, buf); err != nil {
		return err
	}
	fr, err := p.PinOverwrite(id)
	if err != nil {
		return err
	}
	copy(fr.data, buf)
	fr.clearCachedObject()
	fr.MarkDirty()
	fr.Unlock()
	p.Unpin(fr)
	return nil
}

// Allocate implements Store.
func (p *BufferPool) Allocate() (base.PageID, error) {
	if p.crashed.Load() {
		return base.NilPage, errCrashed
	}
	id, err := p.under.Allocate()
	if err == nil {
		p.table.Ensure(id).live.Store(true)
	}
	return id, err
}

// Crash severs the pool from its underlying store for crash-injection
// tests: no further write-back, fault-in, free, or allocation touches
// the store. Resident frames keep serving reads so in-flight
// operations on the abandoned index drain instead of panicking, but
// everything else fails. Without this, an abandoned in-process index
// would keep writing evicted pages into the file a recovered index has
// since reopened — a disk corruption no real kill can produce, since a
// dead process writes nothing.
func (p *BufferPool) Crash() {
	p.crashed.Store(true)
	// Page transfers run under a frame latch and check crashed under
	// it: passing through every latch waits out the ones in flight.
	// Nothing will be written back any more, so nothing is dirty.
	for i := range p.frames[:p.nframes.Load()] {
		if fr := p.frames[i].Load(); fr != nil {
			fr.latch.Lock()
			fr.dirty.Store(false)
			fr.latch.Unlock()
		}
	}
}

// Free implements Store. The cached frame, if any, is dropped without
// write-back since the page's content is dead. Above the pool, the
// reclamation epochs (§5.3) delay Free past every tree operation that
// could still reach the page, so Free normally finds the frame
// unpinned; it must not fail on one that is not. Free pins the frame
// itself — which, as for any pinner, is what makes sure of the page it
// holds — marks it doomed, unmaps it and unpins: the underlying free
// runs at the last Unpin, Free's own unless someone else holds a pin. A
// frame found claimed — the read-ahead worker works outside the epochs,
// and a hint can outlive the page it names — is waited for first.
func (p *BufferPool) Free(id base.PageID) error {
	if slot := p.table.At(id); slot != nil {
		slot.live.Store(false)
		for fr := slot.frame.Load(); fr != nil; fr = slot.frame.Load() {
			s := fr.state.Load()
			if s < 0 {
				// A failed load of id leaves nothing here to drop; the
				// store's own answer to the Free below is the news.
				_ = fr.settled(id)
			} else if s&doomed == 0 && fr.state.CompareAndSwap(s, s+1) {
				if fr.ID() == id {
					fr.state.Or(doomed)
					fr.dirty.Store(false)
					fr.clearCachedObject()
					slot.frame.CompareAndSwap(fr, nil)
					return p.unpin(fr)
				}
				p.Unpin(fr) // recycled for another page before the pin
			}
		}
	}
	if p.crashed.Load() {
		return nil
	}
	return p.under.Free(id)
}

// Pages implements Store.
func (p *BufferPool) Pages() int { return p.under.Pages() }

// Flush writes every dirty frame back to the underlying store, each
// under its latch held shared, so an in-flight encode either lands
// wholly before or wholly after the flush of its frame.
func (p *BufferPool) Flush() error {
	if p.crashed.Load() {
		return errCrashed
	}
	for i := range p.frames[:p.nframes.Load()] {
		if fr := p.frames[i].Load(); fr != nil {
			if err := p.flushFrame(fr); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *BufferPool) flushFrame(fr *Frame) error {
	fr.latch.RLock()
	defer fr.latch.RUnlock()
	if p.crashed.Load() {
		return errCrashed
	}
	// Swap-before-write keeps a dirty mark set after our copy: a
	// later mutator re-dirties and a later flush rewrites.
	if !fr.dirty.Swap(false) {
		return nil
	}
	if err := p.under.Write(fr.ID(), fr.data); err != nil {
		fr.dirty.Store(true)
		return err
	}
	p.writebacks.Add(1)
	return nil
}

// Close stops read-ahead, flushes dirty frames, closes the underlying
// store, and reports leaked pins: any frame still pinned at Close
// means some caller lost track of a Pin, the accounting bug that would
// eventually wedge eviction.
func (p *BufferPool) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	p.wake()
	close(p.prefetchQuit)
	<-p.prefetchDone
	var leaked []base.PageID
	for i := range p.frames[:p.nframes.Load()] {
		if fr := p.frames[i].Load(); fr != nil && fr.state.Load()&pinMask > 0 {
			leaked = append(leaked, fr.ID())
		}
	}
	ferr := p.Flush()
	p.mu.Lock()
	deferredErr := p.freeErr
	p.mu.Unlock()
	if err := p.under.Close(); err != nil {
		return err
	}
	if ferr != nil {
		return ferr
	}
	if deferredErr != nil {
		return fmt.Errorf("storage: deferred free failed: %w", deferredErr)
	}
	if len(leaked) > 0 {
		sort.Slice(leaked, func(i, j int) bool { return leaked[i] < leaked[j] })
		return fmt.Errorf("storage: %d pin(s) leaked at close: pages %v", len(leaked), leaked)
	}
	return nil
}

// PoolStats is a snapshot of cache behaviour. Hits and Misses count
// demand lookups: a hit is one a resident frame served, through a Pin
// or, pinless, through Peek and Touch; a miss is one that waited for a
// page transfer, its own or another goroutine's for the same page.
// Read-ahead is counted apart: Prefetches is hints issued and
// PrefetchLoads the pages it faulted in (a later demand lookup of one
// is a hit). Pinned is the frames pinned now. PinnedHighWater is the
// most the pool has seen in use at once, at the moments it looks: every
// search for a victim counts the pinned frames one turn of the clock
// passes plus the one it claims, and Stats counts all that are pinned.
type PoolStats struct {
	Hits, Misses, Evictions, Writebacks uint64
	Prefetches, PrefetchLoads           uint64
	Resident                            int
	Capacity                            int
	Pinned                              int
	PinnedHighWater                     int
}

// Stats returns a snapshot of the pool counters. It visits every frame.
func (p *BufferPool) Stats() PoolStats {
	s := PoolStats{
		Evictions: p.evictions.Load(), Writebacks: p.writebacks.Load(),
		Prefetches:    p.prefetches.Load(),
		PrefetchLoads: p.prefetchLoads.Load(),
		Capacity:      p.capacity,
	}
	for i := range p.touches {
		s.Hits += p.touches[i].hits.Load()
	}
	for i := range p.frames[:p.nframes.Load()] {
		fr := p.frames[i].Load()
		if fr == nil {
			continue
		}
		s.Hits += fr.hits.Load()
		s.Misses += fr.misses.Load()
		if fr.ID() != base.NilPage {
			s.Resident++
		}
		if fr.state.Load()&pinMask > 0 {
			s.Pinned++
		}
	}
	p.notePinned(s.Pinned)
	s.PinnedHighWater = int(p.pinnedHighWater.Load())
	return s
}

// Merge folds o into s for cross-shard aggregation: counters, resident
// frames and capacities sum; pin high-waters take the maximum.
func (s *PoolStats) Merge(o PoolStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Writebacks += o.Writebacks
	s.Prefetches += o.Prefetches
	s.PrefetchLoads += o.PrefetchLoads
	s.Resident += o.Resident
	s.Capacity += o.Capacity
	s.Pinned += o.Pinned
	if o.PinnedHighWater > s.PinnedHighWater {
		s.PinnedHighWater = o.PinnedHighWater
	}
}
