package blink

import (
	"sync/atomic"

	"blinktree/internal/base"
	"blinktree/internal/locks"
)

// Every leaf write is a conditional write: Insert and Delete as much as
// the read-modify-write surface — Upsert, GetOrInsert, Update,
// CompareAndSwap, CompareAndDelete. Each is a single logical operation
// under the paper's protocol: one descent (Fig. 4/5), one leaf lock, and
// a decision taken while that lock is held, so the observed value and
// the applied write are indivisible. An insertion decides "put if
// absent", a deletion "delete if present" — §4 makes a deletion exactly
// an insertion without splitting — and the others splice their own
// decision between "lock and re-read the leaf" and "rewrite it". So the
// lock footprint stays at the paper's bound of one (two or three under
// NewLehmanYao, as for its insertions), and a split triggered by any of
// them propagates upward through the ordinary insertStep machinery
// (§3.1 overtaking included).

// condAction is what a conditional write decides to do with the leaf
// once its current state is known.
type condAction uint8

const (
	// condNoop leaves the leaf unchanged.
	condNoop condAction = iota
	// condPut stores the outcome's value under the key, inserting the
	// pair when absent and rewriting the value in place when present.
	condPut
	// condDelete removes the pair; valid only when the key is present.
	condDelete
)

// condOutcome is a probe's decision.
type condOutcome struct {
	action condAction
	value  base.Value // meaningful for condPut
}

// condProbe inspects the leaf state under the held lock and decides
// the write. It may be invoked more than once when wrong-node restarts
// force the descent to be redone (§5.2), but the returned action is
// applied at most once — always against the state it was shown.
type condProbe func(cur base.Value, present bool) condOutcome

// condResult reports what a conditional write observed and did.
type condResult struct {
	old     base.Value // value stored before the write; valid when existed
	existed bool
	applied condAction
}

// pairDelta is the write's effect on the pair count.
func (r condResult) pairDelta() int64 {
	switch {
	case r.applied == condDelete:
		return -1
	case r.applied == condPut && !r.existed:
		return 1
	}
	return 0
}

// writeKind names the public operation a conditional write serves.
type writeKind uint8

const (
	writeInsert writeKind = iota
	writeDelete
	writeUpsert // Upsert + GetOrInsert
	writeUpdate
	writeCAS // CompareAndSwap + CompareAndDelete
)

// counters returns the operation counter and the lock footprint a write
// of kind w records on this stripe.
func (o *opCounters) counters(w writeKind) (*atomic.Uint64, *locks.FootprintStats) {
	switch w {
	case writeInsert:
		return &o.inserts, &o.insertFP
	case writeDelete:
		return &o.deletes, &o.deleteFP
	case writeUpsert:
		return &o.upserts, &o.condFP
	case writeUpdate:
		return &o.updates, &o.condFP
	}
	return &o.cas, &o.condFP
}

// condStatus is condStep's verdict.
type condStatus uint8

const (
	condDone   condStatus = iota // operation complete
	condChase                    // key beyond this leaf: retry at next
	condAscend                   // leaf split: place pend one level up, starting at next
)

// condWrite is the one locked leaf write: find the leaf, lock it,
// probe, apply — procedure insert of Fig. 5 at the leaf level — then
// hand any split separator to the upward propagation of insertStep.
func (t *Tree) condWrite(k base.Key, kind writeKind, probe condProbe) (condResult, error) {
	if err := t.checkOpen(); err != nil {
		return condResult{}, err
	}
	sc, g := t.begin()
	sc.h.Init(t.lt)
	st := t.stats.of(sc)
	count, fp := st.counters(kind)
	count.Add(1)
	defer func() {
		sc.h.UnlockAll() // error-path safety; no-op on clean paths
		fp.Record(&sc.h)
		t.end(sc, g)
	}()

	cur, _, err := t.descendRetry(k, &sc.stack)
	if err != nil {
		return condResult{}, err
	}

	// Leaf phase: reach the covering leaf and apply the probe under its
	// lock, redoing the descent on wrong nodes (§5.2).
	var res condResult
	var pend pending
	restarts := 0
	for {
		status, next, r, err := t.condStep(&sc.h, k, probe, cur, &sc.stack, &pend)
		if err == nil {
			switch status {
			case condDone:
				if d := r.pairDelta(); d != 0 {
					st.length.Add(d)
				}
				return r, nil
			case condChase:
				cur = next
				continue
			case condAscend:
				st.length.Add(1) // the pair is live; only the separator remains
				res = r
				cur = next
			}
			break
		}
		if !isRestart(err) {
			return condResult{}, err
		}
		t.stats.restarts.Add(1)
		if restarts++; restarts > maxRestarts {
			return condResult{}, ErrLivelock
		}
		if cur, _, err = t.descendRetry(k, &sc.stack); err != nil {
			return condResult{}, err
		}
	}

	// Upward phase: the leaf write is committed; what remains is the
	// separator propagation of an unsafe insertion. A restart re-finds
	// the node at the pending level (§5.2: restart "from the root for
	// the node at level j").
	for restarts = 0; ; {
		done, next, err := t.insertStep(&sc.h, &pend, cur, &sc.stack)
		if err == nil {
			if done {
				return res, nil
			}
			cur = next
			continue
		}
		if !isRestart(err) {
			return res, err
		}
		t.stats.restarts.Add(1)
		if restarts++; restarts > maxRestarts {
			return res, ErrLivelock
		}
		if cur, err = t.descendToLevel(pend.key, pend.level); err != nil {
			return res, err
		}
	}
}

// condStep makes one locked attempt at leaf cur, with the probe's
// decision spliced in while the single lock is held. Locking follows
// Fig. 5: the candidate is locked and re-read (it may have been split
// between the descent's read and the lock); when the key turns out to
// lie beyond its high value, the lock is dropped and the link chain is
// chased without locks (moveright) to the next candidate.
func (t *Tree) condStep(h *locks.Holder, k base.Key, probe condProbe, cur base.PageID, stack *[]base.PageID, pend *pending) (condStatus, base.PageID, condResult, error) {
	var res condResult
	h.Lock(cur)
	n, err := t.store.Get(cur)
	if err != nil {
		h.Unlock(cur)
		return condDone, base.NilPage, res, err
	}
	switch {
	case n.Deleted:
		h.Unlock(cur)
		if n.OutLink != base.NilPage {
			t.stats.outlinkHops.Add(1)
			return condChase, n.OutLink, res, nil
		}
		return condDone, base.NilPage, res, errRestart{}
	case !n.Low.Less(k):
		h.Unlock(cur)
		return condDone, base.NilPage, res, errRestart{}
	case n.HighLess(k):
		h.Unlock(cur)
		next, err := t.chaseRight(n, k)
		return condChase, next, res, err
	}

	i, existed := n.Index(k)
	if existed {
		res.old, res.existed = n.Val(i), true
	}
	out := probe(res.old, res.existed)
	if out.action == condDelete && !res.existed {
		out.action = condNoop // deleting an absent key is a no-op
	}
	res.applied = out.action
	switch out.action {
	case condNoop:
		h.Unlock(cur)
		return condDone, base.NilPage, res, nil

	case condDelete:
		n2 := n.DeleteLeafPair(k)
		if err := t.store.Put(n2); err != nil {
			h.Unlock(cur)
			return condDone, base.NilPage, res, err
		}
		// Fire the underfull hook while still holding the lock (§5.4: "no
		// extra lock has to be obtained in order to put A on the queue;
		// rather, the current lock on A must be kept by the process until
		// it puts A on the queue").
		if fn := t.onUnderfull.Load(); fn != nil && !n2.Root && n2.Pairs() < t.k {
			t.stats.underfullEvents.Add(1)
			(*fn)(UnderfullEvent{
				ID:    cur,
				Level: 0,
				High:  n2.High,
				Stack: append([]base.PageID(nil), *stack...),
			})
		}
		h.Unlock(cur)
		return condDone, base.NilPage, res, nil
	}

	// condPut. Overwriting a present key's value changes one word of the
	// leaf, so it is stored in place, under the lock, with no new version.
	if res.existed {
		err := t.store.SetValue(n, i, out.value)
		h.Unlock(cur)
		return condDone, base.NilPage, res, err
	}
	// Absent: an ordinary insertion of (k, value) — Fig. 6 verbatim.
	*pend = pending{key: k, val: out.value, level: 0}
	if n.Pairs() < t.capacity() {
		err := t.insertIntoSafe(n, pend)
		h.Unlock(cur)
		return condDone, base.NilPage, res, err
	}
	if n.Root {
		err := t.insertIntoUnsafeRoot(n, pend)
		h.Unlock(cur)
		return condDone, base.NilPage, res, err
	}
	next, err := t.insertIntoUnsafe(n, pend, stack)
	if err != nil {
		h.Unlock(cur)
		return condDone, base.NilPage, res, err
	}
	t.releaseSplit(h, pend, cur)
	return condAscend, next, res, nil
}

// Insert stores v under k, or returns base.ErrDuplicate when k is
// present: procedure insert of Fig. 5 with the insert-into-safe /
// insert-into-unsafe / insert-into-unsafe-root cases of Fig. 6. The
// defining property — and the paper's central claim — is that at most
// one node lock is held at any instant: overtaking on the way up is
// harmless because a level's pairs only ever gain members and never
// reorder (§3.1). A NewLehmanYao tree forbids the overtaking instead
// and holds up to three.
func (t *Tree) Insert(k base.Key, v base.Value) error {
	res, err := t.condWrite(k, writeInsert, func(_ base.Value, present bool) condOutcome {
		if present {
			return condOutcome{}
		}
		return condOutcome{action: condPut, value: v}
	})
	if err == nil && res.existed {
		err = base.ErrDuplicate
	}
	return err
}

// Delete removes k, or returns base.ErrNotFound. Deletions follow §4:
// locate the leaf, lock it, remove the pair by rewriting the leaf,
// unlock — an insertion without splitting, holding one lock. No
// rebalancing happens here; if the leaf drops below k pairs the
// underfull hook fires while the lock is held (§5.4) and a compression
// process takes over asynchronously.
func (t *Tree) Delete(k base.Key) error {
	res, err := t.condWrite(k, writeDelete, func(base.Value, bool) condOutcome {
		return condOutcome{action: condDelete}
	})
	if err == nil && !res.existed {
		err = base.ErrNotFound
	}
	return err
}

// Upsert stores v under k unconditionally, returning the value that
// was stored before (and whether one existed). Unlike Search+Insert it
// is atomic and pays a single descent: the present/absent decision is
// taken under the one held leaf lock.
func (t *Tree) Upsert(k base.Key, v base.Value) (old base.Value, existed bool, err error) {
	res, err := t.condWrite(k, writeUpsert, func(base.Value, bool) condOutcome {
		return condOutcome{action: condPut, value: v}
	})
	return res.old, res.existed, err
}

// GetOrInsert returns the value stored under k, inserting v first if k
// is absent. loaded reports whether the value was already present.
func (t *Tree) GetOrInsert(k base.Key, v base.Value) (actual base.Value, loaded bool, err error) {
	res, err := t.condWrite(k, writeUpsert, func(_ base.Value, present bool) condOutcome {
		if present {
			return condOutcome{}
		}
		return condOutcome{action: condPut, value: v}
	})
	if err != nil {
		return 0, false, err
	}
	if res.existed {
		return res.old, true, nil
	}
	return v, false, nil
}

// Update atomically replaces the value under k with fn(current),
// returning the new value, or ErrNotFound when k is absent. fn runs
// under the held leaf lock: keep it fast and side-effect free — it may
// be re-invoked (with a fresh current value) if a wrong-node restart
// forces the descent to be redone before the write lands.
func (t *Tree) Update(k base.Key, fn func(base.Value) base.Value) (base.Value, error) {
	var newV base.Value
	res, err := t.condWrite(k, writeUpdate, func(cur base.Value, present bool) condOutcome {
		if !present {
			return condOutcome{}
		}
		newV = fn(cur)
		return condOutcome{action: condPut, value: newV}
	})
	if err != nil {
		return 0, err
	}
	if !res.existed {
		return 0, base.ErrNotFound
	}
	return newV, nil
}

// CompareAndSwap replaces the value under k with new only if the
// stored value equals old. It returns whether the swap happened;
// ErrNotFound when k is absent (swapped false, no error, when present
// with a different value).
func (t *Tree) CompareAndSwap(k base.Key, old, new base.Value) (swapped bool, err error) {
	res, err := t.condWrite(k, writeCAS, func(cur base.Value, present bool) condOutcome {
		if !present || cur != old {
			return condOutcome{}
		}
		return condOutcome{action: condPut, value: new}
	})
	if err != nil {
		return false, err
	}
	if !res.existed {
		return false, base.ErrNotFound
	}
	return res.applied == condPut, nil
}

// CompareAndDelete removes k only if the stored value equals old. It
// returns whether the deletion happened; ErrNotFound when k is absent.
func (t *Tree) CompareAndDelete(k base.Key, old base.Value) (deleted bool, err error) {
	res, err := t.condWrite(k, writeCAS, func(cur base.Value, present bool) condOutcome {
		if !present || cur != old {
			return condOutcome{}
		}
		return condOutcome{action: condDelete}
	})
	if err != nil {
		return false, err
	}
	if !res.existed {
		return false, base.ErrNotFound
	}
	return res.applied == condDelete, nil
}
