package blink

import (
	"blinktree/internal/base"
)

// Range calls fn for every pair with lo ≤ key ≤ hi in ascending key
// order, stopping early when fn returns false. The scan walks the leaf
// chain through the right links — the sequential-traversal property the
// links were originally added for (§2.1 footnote 3).
//
// Concurrent-mutation semantics: the scan never emits a key twice or
// out of order, and each emitted value is one the pair held during the
// visit to its leaf, read in key order (an overwrite stores a value in
// place, so two values of one leaf may straddle it — as two values of
// neighbouring leaves always could). Pairs inserted or deleted
// concurrently with the scan may or may not appear. (The paper's
// serializability theorem covers point operations; scans get this
// weaker, still-monotonic guarantee.)
func (t *Tree) Range(lo, hi base.Key, fn func(base.Key, base.Value) bool) error {
	if err := t.checkOpen(); err != nil {
		return err
	}
	if hi < lo {
		return nil
	}
	sc, g := t.begin()
	defer t.end(sc, g)
	t.stats.of(sc).scans.Add(1)

	// cursor is the smallest key not yet emitted; it makes restarts and
	// sibling hops idempotent.
	cursor := lo
	for attempt := 0; attempt < maxRestarts; attempt++ {
		done, err := t.scanFrom(&cursor, hi, fn)
		if err == nil || !isRestart(err) {
			_ = done
			return err
		}
		t.stats.restarts.Add(1)
	}
	return ErrLivelock
}

// scanFrom emits pairs in [*cursor, hi], advancing *cursor as it goes,
// until the range is exhausted, fn stops it, or a wrong node forces a
// restart.
func (t *Tree) scanFrom(cursor *base.Key, hi base.Key, fn func(base.Key, base.Value) bool) (bool, error) {
	id, n, err := t.descend(*cursor, nil)
	if err != nil {
		return false, err
	}
	if id, n, err = t.moveright(id, n, *cursor); err != nil {
		return false, err
	}
	for {
		t.prefetchLink(n)
		for i, k := range n.Keys {
			if k < *cursor {
				continue
			}
			if k > hi {
				return true, nil
			}
			if !fn(k, n.Val(i)) {
				return true, nil
			}
			if k == base.Key(^uint64(0)) {
				return true, nil // emitted the maximum key; nothing above it
			}
			*cursor = k + 1
		}
		// Advance past this leaf's range so a redistribution that
		// shifts pairs left cannot replay them.
		if n.High.Kind == base.PosInf {
			return true, nil
		}
		if n.High.K >= hi {
			return true, nil
		}
		if n.High.K >= *cursor {
			*cursor = n.High.K + 1
		}
		next := n.Link
		if next == base.NilPage {
			return true, nil
		}
		if n, err = t.step(next, *cursor); err != nil {
			return false, err
		}
	}
}

// Min returns the smallest key in the tree, or ErrNotFound when empty.
func (t *Tree) Min() (base.Key, base.Value, error) {
	var rk base.Key
	var rv base.Value
	found := false
	err := t.Range(0, base.Key(^uint64(0)), func(k base.Key, v base.Value) bool {
		rk, rv, found = k, v, true
		return false
	})
	if err != nil {
		return 0, 0, err
	}
	if !found {
		return 0, 0, base.ErrNotFound
	}
	return rk, rv, nil
}

// Max returns the largest key in the tree, or ErrNotFound when empty.
// It walks the rightmost spine rather than scanning.
func (t *Tree) Max() (base.Key, base.Value, error) {
	if err := t.checkOpen(); err != nil {
		return 0, 0, err
	}
	sc, g := t.begin()
	defer t.end(sc, g)

	for attempt := 0; attempt < maxRestarts; attempt++ {
		k, v, err := t.maxOnce()
		if err == nil || !isRestart(err) {
			return k, v, err
		}
		t.stats.restarts.Add(1)
	}
	return 0, 0, ErrLivelock
}

func (t *Tree) maxOnce() (base.Key, base.Value, error) {
	maxKey := base.Key(^uint64(0))
	id, n, err := t.descend(maxKey, nil)
	if err != nil {
		return 0, 0, err
	}
	if _, n, err = t.moveright(id, n, maxKey); err != nil {
		return 0, 0, err
	}
	// The rightmost leaf can be empty after deletions even when the
	// tree is not; fall back to a full reverse-less scan via Range in
	// that rare case by walking from the left.
	if len(n.Keys) == 0 {
		var rk base.Key
		var rv base.Value
		found := false
		err := t.Range(0, maxKey, func(k base.Key, v base.Value) bool {
			rk, rv, found = k, v, true
			return true
		})
		if err != nil {
			return 0, 0, err
		}
		if !found {
			return 0, 0, base.ErrNotFound
		}
		return rk, rv, nil
	}
	i := len(n.Keys) - 1
	return n.Keys[i], n.Val(i), nil
}
