package blink

import (
	"sync"
	"sync/atomic"

	"blinktree/internal/base"
	"blinktree/internal/locks"
)

// opScratch bundles the per-operation state every tree operation
// threads through its descent: the movedown stack and (for writers)
// the lock holder. The operations pass these around by pointer —
// descend appends through *stack, insertStep pops it, the footprint
// stats read the Holder — and Go's escape analysis moves any local
// whose address crosses a call boundary to the heap. Declaring them as
// stack variables therefore costs two heap objects per operation.
//
// Pooling sidesteps that: the scratch object is heap-allocated once,
// so &sc.stack and &sc.h are interior pointers into memory that
// already lives on the heap, and the steady state allocates nothing.
// Holder.Init fully resets the holder, and callers truncate the stack
// before use, so reuse across operations (and goroutines, via the
// pool) is safe.
//
// The pool also gives an operation the nearest thing Go offers to a
// per-CPU identity: sync.Pool hands a P back the object it last put, so
// the stripe number a scratch is born with stays with one P most of the
// time. Operations use it to pick their stripe of the Stats counters.
type opScratch struct {
	h      locks.Holder
	stack  []base.PageID
	stripe uint32 // fixed at birth; see Stats.of
}

var (
	opScratchPool = sync.Pool{
		New: func() any {
			return &opScratch{
				stack:  make([]base.PageID, 0, descentStackCap),
				stripe: scratchSeq.Add(1),
			}
		},
	}
	scratchSeq atomic.Uint32 // numbers the pool's scratches
)

// getScratch returns a scratch with an empty stack. The Holder is NOT
// initialized; write paths call sc.h.Init themselves.
func getScratch() *opScratch {
	sc := opScratchPool.Get().(*opScratch)
	sc.stack = sc.stack[:0]
	return sc
}

func putScratch(sc *opScratch) { opScratchPool.Put(sc) }
