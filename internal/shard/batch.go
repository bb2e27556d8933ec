package shard

import (
	"sync"
	"time"

	"blinktree/internal/base"
	"blinktree/internal/wal"
)

// pendingCommit pairs a batch slot with its commit ticket so a durable
// shard group can wait once and still report per-operation errors.
type pendingCommit struct {
	i int32
	t wal.Ticket
}

// OpKind is one batched operation type.
type OpKind uint8

// Batched operation kinds. Update is not batchable — it carries a
// function, which has no place in a value-shaped batch slot; use the
// point API for read-modify-write closures.
const (
	OpSearch OpKind = iota
	OpInsert
	OpDelete
	OpUpsert
	OpGetOrInsert
	OpCompareAndSwap
	OpCompareAndDelete
)

// Op is one operation in a batch. Value is ignored for searches and
// deletes; Old is the expected current value for OpCompareAndSwap and
// OpCompareAndDelete and ignored otherwise.
type Op struct {
	Kind  OpKind
	Key   base.Key
	Value base.Value
	Old   base.Value
}

// Result is the outcome of one batched operation, in the same position
// as its Op. Value carries the searched value (OpSearch), the previous
// value (OpUpsert) or the resulting value (OpGetOrInsert). OK reports
// the kind-specific boolean: existed for OpUpsert, loaded for
// OpGetOrInsert, swapped/deleted for the compare ops.
type Result struct {
	Value base.Value
	OK    bool
	Err   error
}

// BatchScratch is the reusable working memory of ApplyBatchInto: the
// results slice, the shard-grouping arrays, the inline group's
// commit-ticket buffer and one prebuilt task per spawned shard group.
// A zero BatchScratch is ready to use; once it has seen a batch of a
// given size touching a given set of shards it is warm, and
// ApplyBatchInto allocates nothing — multi-shard batches included. A
// scratch belongs to one caller at a time (the server keeps one per
// connection) and the returned results alias it, so they are valid
// only until the next ApplyBatchInto with the same scratch.
type BatchScratch struct {
	results []Result
	shardOf []int32 // destination shard per op
	idxs    []int32 // op indexes bucketed by shard, one backing array
	counts  []int32 // per-shard group size, then fill cursor
	starts  []int32 // per-shard offset of its bucket in idxs
	pend    []pendingCommit
	// tasks[s] runs shard s's group on a spawned goroutine. Each is
	// built once and reads the batch from r and ops below, so starting
	// a group is `go` on a stored func value with no arguments, which
	// allocates nothing; a closure built per batch would cost two
	// allocations per spawned group.
	tasks []func()
	r     *Router // the batch in flight, for tasks
	ops   []Op
	wg    sync.WaitGroup
}

// grow returns s resized to n int32s, reusing capacity.
func grow(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// ApplyBatch executes ops grouped by destination shard and returns
// results positionally aligned with ops. It is ApplyBatchInto with a
// throwaway scratch — callers on a steady-state path (the server's
// poll loop) hold a BatchScratch instead.
func (r *Router) ApplyBatch(ops []Op) []Result {
	var sc BatchScratch
	return r.ApplyBatchInto(ops, &sc)
}

// ApplyBatchInto executes ops grouped by destination shard, disjoint
// groups in parallel, and returns results positionally aligned with
// ops, storing all working state in sc. Grouping pays the routing
// division once per op but lets disjoint shards proceed with no
// cross-shard coordination; within one shard, the group's operations
// run in their original relative order.
//
// One group — there is always at least one when ops is non-empty —
// runs inline on the calling goroutine rather than on a spawned one:
// a single-shard batch (every point-op poll against a one-shard
// server, and any burst that happens to hash together) therefore
// spawns no goroutines at all.
//
// Errors are per-operation (base.ErrNotFound, base.ErrDuplicate, ...),
// never aggregate: a failed op does not stop the batch.
func (r *Router) ApplyBatchInto(ops []Op, sc *BatchScratch) []Result {
	n := len(ops)
	if cap(sc.results) < n {
		sc.results = make([]Result, n)
	}
	results := sc.results[:n]
	clear(results) // stale Err/Value from the previous batch
	if n == 0 {
		return results
	}
	ns := len(r.engines)

	// Bucket op indexes by shard with a counting sort: one shared
	// backing array instead of per-shard append-grown slices.
	shardOf := grow(sc.shardOf, n)
	counts := grow(sc.counts, ns)
	clear(counts)
	for i, op := range ops {
		s := int32(r.shardFor(op.Key))
		shardOf[i] = s
		counts[s]++
	}
	starts := grow(sc.starts, ns)
	sum := int32(0)
	for s, c := range counts {
		starts[s] = sum
		sum += c
	}
	idxs := grow(sc.idxs, n)
	fill := counts // reuse as fill cursors: fill[s] counts placed ops
	clear(fill)
	for i := int32(0); i < int32(n); i++ {
		s := shardOf[i]
		idxs[starts[s]+fill[s]] = i
		fill[s]++
	}
	sc.shardOf, sc.counts, sc.starts, sc.idxs = shardOf, counts, starts, idxs

	// Dispatch: every non-empty group but the last gets a goroutine;
	// the last runs inline with the scratch's pend buffer.
	inline := -1
	for s := ns - 1; s >= 0; s-- {
		if fill[s] > 0 {
			inline = s
			break
		}
	}
	sc.r, sc.ops = r, ops
	for s := 0; s < inline; s++ {
		if fill[s] == 0 {
			continue
		}
		sc.wg.Add(1)
		go sc.task(s)()
	}
	if inline >= 0 {
		group := sc.group(inline)
		if cap(sc.pend) < len(group) {
			sc.pend = make([]pendingCommit, 0, len(group))
		}
		r.runGroup(inline, group, ops, results, sc.pend[:0])
	}
	sc.wg.Wait()
	sc.r, sc.ops = nil, nil // retain neither the router nor the caller's ops
	return results
}

// group returns shard s's op indexes in the batch bucketed into sc.
func (sc *BatchScratch) group(s int) []int32 {
	return sc.idxs[sc.starts[s] : sc.starts[s]+sc.counts[s]]
}

// task returns the func that runs shard s's group of the batch in
// flight, building it on first use.
func (sc *BatchScratch) task(s int) func() {
	if len(sc.tasks) != len(sc.r.engines) {
		sc.tasks = make([]func(), len(sc.r.engines))
	}
	if sc.tasks[s] == nil {
		sc.tasks[s] = func() {
			sc.r.runGroup(s, sc.group(s), sc.ops, sc.results[:len(sc.ops)], nil)
			sc.wg.Done()
		}
	}
	return sc.tasks[s]
}

// runGroup applies one shard's group of a batch. pend, when non-nil,
// is a caller-provided commit-ticket buffer (capacity ≥ len(idxs)).
func (r *Router) runGroup(s int, idxs []int32, ops []Op, results []Result, pend []pendingCommit) {
	start := time.Now()
	e := r.engines[s]
	// On a durable engine, apply the whole group first — collecting
	// commit tickets — and fsync-wait once at the end: the shard group
	// rides a single group commit instead of paying one fsync per
	// operation.
	durable := e.wal != nil
	for _, i := range idxs {
		var tk wal.Ticket
		results[i], tk = e.apply(ops[i], nil)
		if durable && results[i].Err == nil {
			if tk.Pending() {
				pend = append(pend, pendingCommit{i: i, t: tk})
			} else if err := tk.Wait(); err != nil {
				// Not attached to a group, yet erroring: the append
				// itself failed (log crashed or closed). A search's or
				// a genuine no-op's zero ticket returns nil here.
				results[i].Err = err
			}
		}
	}
	if len(pend) > 0 {
		// Group commits complete in order, so a clean wait on the
		// newest ticket covers every earlier one; on failure, fan out
		// to assign per-operation errors.
		if err := pend[len(pend)-1].t.Wait(); err != nil {
			for _, p := range pend {
				if werr := p.t.Wait(); werr != nil && results[p.i].Err == nil {
					results[p.i].Err = werr
				}
			}
		}
	}
	m := &r.ms[s]
	m.Batches.Inc()
	m.BatchOps.Add(uint64(len(idxs)))
	m.BatchLatency.Observe(time.Since(start))
}
