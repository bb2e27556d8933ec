// Package storage provides the page-store substrate beneath the trees:
// the "secondary storage" of the paper's model (§2.2). A Store hands
// out fixed-size pages addressed by base.PageID and guarantees that
// Read and Write of a single page are indivisible with respect to each
// other — the property the paper's get/put primitives require, and the
// only property the correctness proofs lean on (no ordering across
// pages, no global atomicity).
//
// Map from code to the model:
//
//   - store.go: the Store interface (Allocate/Read/Write/Free), i.e.
//     the paper's page-granular secondary storage with indivisible
//     get/put (§2.2).
//   - memstore.go: MemStore keeps pages in memory, copying under a
//     sharded lock — the configuration every in-memory tree and test
//     uses.
//   - filestore.go: FileStore maps one page per fixed-size slot of a
//     single file, the durable deployment. Which ids are allocated is a
//     page directory of atomic flags; a Read or Write takes the page's
//     shard latch and no store-wide lock.
//   - bufferpool.go: BufferPool is a bounded write-back cache with
//     clock (second-chance) eviction, wrapped around another Store —
//     the "main memory holds a few pages at a time" assumption (§2.2)
//     made explicit and enforced. It is the disk-native serving path:
//     at most Capacity frames resident, everything else faulted in on
//     demand.
//
// The node layer (internal/node) sits directly above: it serializes
// tree nodes through the page codec into whichever Store is
// configured. Each shard of a sharded index (internal/shard) owns a
// disjoint Store — with a file-backed configuration, shard i lives in
// its own "<path>.shard<i>" file.
//
// # Pin/unpin and eviction
//
// BufferPool offers two regimes. As a plain Store it copies pages in
// and out. For zero-copy serving, Pin(id) returns a *Frame whose bytes
// the caller may read or mutate in place. The pool has no lock of its
// own on either path: everything is decided on the words of one frame
// and one slot of the page directory (internal/pagedir, page → frame).
//
// Frames are created, each with its page buffer, as misses first need
// them, up to Capacity, and then recycled from page to page for ever: a
// steady-state miss allocates nothing. Who may write which word of a
// frame is on the Frame type; in short, its state word is a pin count
// or "claimed" (owned by one goroutine that is loading or emptying it),
// its id and directory mapping change only under a claim with the latch
// held exclusively, and its bytes belong to pin holders under the latch
// (RLock to read or decode, Lock to mutate or encode, MarkDirty after
// mutating, unlatch before Unpin).
//
//   - A hit. Pin loads the frame pointer from the directory, adds one
//     to the state word by compare-and-swap (only from a value that is
//     not claimed; only a zero can be claimed, so a pinned frame is
//     never evicted), and then checks that the frame still holds the
//     page asked for: it could have been recycled between the load and
//     the increment, and now that it is pinned its id cannot change. A
//     pinner that lost that race unpins and looks again. A hit sets the
//     clock's reference bit only if clear and counts on the frame it
//     has just written: nothing pool-wide. Pin and Unpin pair exactly:
//     an Unpin with no outstanding pin panics, and pins outstanding at
//     Close are reported as leaks.
//   - A pinless hit. A frame's cached decoded object is set only by a
//     pin holder under the latch, so it never describes bytes other
//     than the frame's, and the pool clears it before the page can
//     become resident anywhere else. Peek(id) returns the frame mapped
//     to id, unpinned; the caller loads the object and checks that it
//     is page id's own (internal/node checks Node.ID), since the frame
//     may have been recycled in between. An object that passes was the
//     page's current content when it was loaded: a newer version could
//     only have been written through a pin on this same frame, which
//     replaces the object, or after the page moved to another frame,
//     before which the object is cleared. The read linearizes at that
//     load, as a decode of the bytes at that instant would. Touch then
//     counts the hit on a striped counter — the one shared write.
//   - A miss claims a victim: a new frame below Capacity, else the
//     clock's choice (the hand skips pinned and claimed frames, spends
//     a set reference bit as the frame's second chance, and claims the
//     first unpinned frame without one; a page arrives with the bit
//     clear and earns it by being hit). The loader latches the victim
//     exclusively and elects itself by storing the frame into the
//     page's empty directory slot; a loser releases its victim
//     untouched and looks again. A dirty victim is written back first
//     and stays mapped to its old page, claimed, until the bytes have
//     landed — lookups of that page wait on the latch — so every page
//     is always resident or re-fetchable and nobody can re-fault a
//     stale image. Then the page is read in (not at all for
//     PinOverwrite and Write of a page known to exist: they replace
//     every byte) and the claim becomes the caller's pin. The only lock
//     held across these transfers is that one frame's latch, so misses
//     on different pages overlap; a second miss on the same page finds
//     the claimed frame in the slot and waits on its latch — one page,
//     one read. A failed read is recorded on the frame for those
//     waiters, and leaves no mapping and no pin. The read-ahead worker
//     takes the same path, but gives up when no frame is free and
//     leaves the page unpinned.
//   - Exhaustion. When every frame is pinned or claimed a Pin waits, on
//     the pool's one mutex and condition, which nothing else uses,
//     until an Unpin brings a count to zero or the pool closes
//     (base.ErrClosed). Pins span a decode, an encode or one transfer,
//     so the wait is short; only after ExhaustedAfter does Pin fail
//     with the "exhausted" error, which therefore means a leaked pin.
//   - Lock order. A goroutine holds at most one frame latch and calls
//     the underlying store with nothing else held; the pool mutex is
//     never held across a latch or a store call; latch holders call
//     back into the pool only to Unpin, after unlatching. Flush takes
//     each latch shared, without a pin, to write the bytes back.
//
// How this composes with the paper's §5.3 reclamation epochs, one layer
// up: the tree never holds frame pointers across operations
// (internal/node hands out Node values whose structure never changes),
// so a lock-free search racing an eviction either finds the page
// resident or faults it back in — both serve the bytes the last writer
// put there.
//
// The one in-place write, node.PagedStore.SetValue (an overwrite of a
// leaf value), leans on the latch the same way. Holding the frame's
// latch exclusively, it first installs the writer's node as the frame's
// cached object, then stores the value word into it, then re-encodes
// the page and marks it dirty. Anyone who can see the new value read it
// from that node after the store. From the install on, a pinless Get
// finds that node, a pinned one waits on the latch, and once the latch
// is released the bytes carry the value too, so a write-back and a later
// fault-in serve it. Stored before the install, the value would be
// visible through the writer's node while the frame cached an older
// decode, or while the page, evicted in between, was re-read from its
// old image: one reader could see the new value and then the old. A page
// retired by compression is Freed only after every epoch that could
// still reach it has exited. Free pins the page's frame like any other
// pinner, marks it doomed — no new pin, no claim — unmaps the page and
// unpins; whoever releases the last pin, normally Free itself, empties
// the frame without write-back and runs the underlying free. The one
// actor outside the epochs is the read-ahead worker, whose stale hints
// may be loading a page as it is freed: Free waits for that claim and
// then drops what it loaded.
//
// # Durability contract
//
// A Store guarantees indivisible single-page reads and writes, and
// nothing more — exactly the paper's model. In particular a completed
// Write is NOT durable: FileStore hands pages to the OS page cache,
// BufferPool may hold them dirty in memory until eviction or Flush,
// and a crash can lose or tear any set of unflushed pages in any
// order. The module's crash-consistency story therefore does not rest
// on the page store at all; it rests on internal/wal, which logs
// logical operations with per-record CRCs and group-commit fsync, and
// rebuilds the page-level state from "checkpoint + log suffix" on
// recovery. Page files under a durable configuration are rebuilt, not
// trusted.
//
// Two knobs harden the page layer itself when that is what an
// experiment wants to measure: FileStore.SetSyncWrites makes each
// page write individually fsynced (its Stats count writes and syncs),
// and BufferPool.Flush forces dirty frames down. Neither is a
// substitute for the WAL: without a log, a crash between two related
// page writes still leaves a torn multi-page structure.
package storage
