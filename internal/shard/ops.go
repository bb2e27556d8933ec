package shard

import (
	"blinktree/internal/base"
	"blinktree/internal/wal"
)

// Engine operation surface. The Router and the public facade route
// every logical operation through these methods rather than the inner
// tree, and every one of them — batched or not — runs apply, so one
// code path covers both regimes:
//
//   - Volatile (no WAL): an operation is its tree call plus the verify
//     mark.
//   - Durable: the tree call and the log append happen under a per-key
//     stripe lock — so racing mutations of the same key append in apply
//     order and replay converges to the live state — and the operation
//     returns only after its group commit fsyncs. Failed operations
//     (duplicate insert, missing delete, CAS mismatch) log nothing.
//
// Every logical mutation is normalized to its resolved outcome before
// logging: Update logs the computed value, not the closure; CAS logs
// the new value only when it swapped. apply returns the commit Ticket
// instead of waiting, which lets ApplyBatch append a whole shard group
// and block once for its last ticket (group commits complete in order,
// so the last ticket covers the rest).

// opUpdate is Update's kind inside apply. It is not batchable: its
// closure travels as apply's fn argument, not in the value-shaped Op.
const opUpdate = OpCompareAndDelete + 1

// apply runs op against the tree and logs its resolved outcome: a put
// of the value now stored, a del, or nothing when the op wrote nothing
// or failed. fn is Update's closure and nil for every other kind; any
// kind that does not mutate searches. The stripe is taken only when a
// WAL exists, and only for mutations.
func (e *Engine) apply(op Op, fn func(base.Value) base.Value) (r Result, t wal.Ticket) {
	if e.wal != nil && op.Kind != OpSearch {
		s := e.stripe(op.Key)
		s.Lock()
		defer s.Unlock()
	}
	var kind wal.Kind // zero: nothing to log
	switch op.Kind {
	case OpInsert:
		r.Err = e.Tree.Insert(op.Key, op.Value)
		kind = wal.KindPut
	case OpDelete:
		r.Err = e.Tree.Delete(op.Key)
		kind = wal.KindDel
	case OpUpsert:
		r.Value, r.OK, r.Err = e.Tree.Upsert(op.Key, op.Value)
		kind = wal.KindPut
	case OpGetOrInsert:
		r.Value, r.OK, r.Err = e.Tree.GetOrInsert(op.Key, op.Value)
		if !r.OK {
			kind = wal.KindPut
		}
	case OpCompareAndSwap:
		r.OK, r.Err = e.Tree.CompareAndSwap(op.Key, op.Old, op.Value)
		if r.OK {
			kind = wal.KindPut
		}
	case OpCompareAndDelete:
		r.OK, r.Err = e.Tree.CompareAndDelete(op.Key, op.Old)
		if r.OK {
			kind = wal.KindDel
		}
	case opUpdate:
		r.Value, r.Err = e.Tree.Update(op.Key, fn)
		op.Value, kind = r.Value, wal.KindPut
	default:
		r.Value, r.Err = e.Tree.Search(op.Key)
	}
	if r.Err != nil || kind == 0 {
		return r, t
	}
	e.markVerify(op.Key)
	if e.wal != nil {
		rec := wal.Record{Kind: kind, Key: op.Key}
		if kind == wal.KindPut {
			rec.Value = op.Value
		}
		t = e.wal.Append(rec)
	}
	return r, t
}

// applyWait is apply for one point operation: it waits for the commit.
func (e *Engine) applyWait(op Op, fn func(base.Value) base.Value) Result {
	r, t := e.apply(op, fn)
	if r.Err == nil {
		r.Err = t.Wait()
	}
	return r
}

// Insert stores v under k; base.ErrDuplicate if k is present.
func (e *Engine) Insert(k base.Key, v base.Value) error {
	return e.applyWait(Op{Kind: OpInsert, Key: k, Value: v}, nil).Err
}

// Delete removes k, or returns base.ErrNotFound.
func (e *Engine) Delete(k base.Key) error {
	return e.applyWait(Op{Kind: OpDelete, Key: k}, nil).Err
}

// Upsert stores v under k unconditionally, returning the previous
// value and whether one existed.
func (e *Engine) Upsert(k base.Key, v base.Value) (base.Value, bool, error) {
	r := e.applyWait(Op{Kind: OpUpsert, Key: k, Value: v}, nil)
	return r.Value, r.OK, r.Err
}

// GetOrInsert returns the value under k, inserting v first when k is
// absent; loaded reports whether it was already present. Only the
// inserting outcome mutates, so only it logs.
func (e *Engine) GetOrInsert(k base.Key, v base.Value) (base.Value, bool, error) {
	r := e.applyWait(Op{Kind: OpGetOrInsert, Key: k, Value: v}, nil)
	return r.Value, r.OK, r.Err
}

// Update atomically replaces the value under k with fn(current) and
// returns the new value, or base.ErrNotFound. The log records the
// resolved value, never the closure.
func (e *Engine) Update(k base.Key, fn func(base.Value) base.Value) (base.Value, error) {
	r := e.applyWait(Op{Kind: opUpdate, Key: k}, fn)
	return r.Value, r.Err
}

// CompareAndSwap replaces k's value with new only when it equals old.
// Only a successful swap mutates, so only it logs.
func (e *Engine) CompareAndSwap(k base.Key, old, new base.Value) (bool, error) {
	r := e.applyWait(Op{Kind: OpCompareAndSwap, Key: k, Value: new, Old: old}, nil)
	return r.OK, r.Err
}

// CompareAndDelete removes k only when its value equals old.
func (e *Engine) CompareAndDelete(k base.Key, old base.Value) (bool, error) {
	r := e.applyWait(Op{Kind: OpCompareAndDelete, Key: k, Old: old}, nil)
	return r.OK, r.Err
}

// InsertDirect stores v under k without logging it — the loading path
// recovery and Restore share with BulkLoad. It marks the verify bucket
// like every other mutation, so a verified engine's root covers the
// loaded pairs. Callers need exclusive access and must Checkpoint
// afterwards to make the loaded state durable (no-op when volatile).
func (e *Engine) InsertDirect(k base.Key, v base.Value) error {
	if err := e.Tree.Insert(k, v); err != nil {
		return err
	}
	e.markVerify(k)
	return nil
}

// BulkLoad builds the empty engine bottom-up from a strictly ascending
// pair stream. On a durable engine it is followed by an immediate
// checkpoint, which is how the loaded state becomes durable — bulk
// loading bypasses the per-operation log by design.
func (e *Engine) BulkLoad(pairs func() (base.Key, base.Value, bool), fill float64) error {
	if err := e.Tree.BulkLoad(pairs, fill); err != nil {
		return err
	}
	// Bulk loading bypasses the per-key mutation paths, so the overlay
	// cannot track which buckets changed — all of them did.
	if e.overlay != nil {
		e.overlay.MarkAll()
	}
	return e.Checkpoint()
}
