package blink

import (
	"blinktree/internal/base"
	"blinktree/internal/locks"
)

// Delete removes k from the tree. Deletions follow §4: locate the leaf,
// lock it, remove the pair by rewriting the leaf, unlock — structurally
// identical to an insertion without splitting, so it also holds at most
// one lock. No rebalancing happens here; if the leaf drops below k
// pairs the underfull hook fires (while the lock is held, §5.4) and a
// compression process takes over asynchronously.
func (t *Tree) Delete(k base.Key) error {
	if err := t.checkOpen(); err != nil {
		return err
	}
	sc, g := t.begin()
	sc.h.Init(t.lt)
	st := t.stats.of(sc)
	st.deletes.Add(1)
	defer func() {
		sc.h.UnlockAll()
		st.deleteFP.Record(&sc.h)
		t.end(sc, g)
	}()

	leafID, _, err := t.descendRetry(k, &sc.stack)
	if err != nil {
		return err
	}

	cur := leafID
	for restarts := 0; ; {
		done, next, err := t.deleteStep(&sc.h, k, cur, sc.stack)
		if err == nil {
			if done {
				st.length.Add(-1)
				return nil
			}
			cur = next
			continue
		}
		if !isRestart(err) {
			return err
		}
		t.stats.restarts.Add(1)
		if restarts++; restarts > maxRestarts {
			return ErrLivelock
		}
		if cur, _, err = t.descendRetry(k, &sc.stack); err != nil {
			return err
		}
	}
}

// deleteStep attempts the removal at leaf cur, mirroring insertStep's
// lock-and-recheck discipline (Fig. 5 applied to deletion, §4).
func (t *Tree) deleteStep(h *locks.Holder, k base.Key, cur base.PageID, stack []base.PageID) (done bool, next base.PageID, err error) {
	h.Lock(cur)
	n, err := t.store.Get(cur)
	if err != nil {
		h.Unlock(cur)
		return false, base.NilPage, err
	}
	switch {
	case n.Deleted:
		h.Unlock(cur)
		if n.OutLink != base.NilPage {
			t.stats.outlinkHops.Add(1)
			return false, n.OutLink, nil
		}
		return false, base.NilPage, errRestart{}
	case !n.Low.Less(k):
		h.Unlock(cur)
		return false, base.NilPage, errRestart{}
	case n.HighLess(k):
		h.Unlock(cur)
		next, err := t.chaseRight(n, k)
		return false, next, err
	}

	n2 := n.DeleteLeafPair(k)
	if n2 == nil {
		h.Unlock(cur)
		return false, base.NilPage, base.ErrNotFound
	}
	if err := t.store.Put(n2); err != nil {
		h.Unlock(cur)
		return false, base.NilPage, err
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
			Stack: append([]base.PageID(nil), stack...),
		})
	}
	h.Unlock(cur)
	return true, base.NilPage, nil
}
