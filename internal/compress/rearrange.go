package compress

import (
	"fmt"

	"blinktree/internal/base"
	"blinktree/internal/locks"
	"blinktree/internal/node"
)

// rearrangeOutcome reports what happened to one (A, B) sibling pair.
type rearrangeOutcome int

const (
	// outcomeSkipped: neither sibling was underfull (footnote 15) or
	// the parent's view was stale; nothing was written.
	outcomeSkipped rearrangeOutcome = iota
	// outcomeMerged: B's pairs moved into A and B was deleted.
	outcomeMerged
	// outcomeRedistributed: pairs were shifted so both hold ≥ k.
	outcomeRedistributed
)

// rearrangeResult carries the after-images the caller needs for
// follow-up work (requeueing an underfull parent or survivor, retiring
// the deleted page).
type rearrangeResult struct {
	outcome  rearrangeOutcome
	parent   *node.Node  // F after rewrite (nil when skipped)
	survivor *node.Node  // A after rewrite (nil when skipped)
	deleted  base.PageID // B's page when merged, else NilPage
}

// rearrange performs the §5.2 "rearrange A and B" step. The caller
// holds locks (via h) on F, A and B, where A = F.Children[idx] and B is
// A's right sibling with its pointer at F.Children[idx+1]; snapshots
// are current. rearrange writes the three nodes in the paper's order —
// the child that gains data first, then the parent, then the other
// child — releasing each lock immediately after its node is rewritten,
// and returns with all three unlocked.
func rearrange(st node.Store, h *locks.Holder, f *node.Node, idx int, a, b *node.Node, k int) (rearrangeResult, error) {
	unlockAll := func() {
		h.Unlock(a.ID)
		h.Unlock(b.ID)
		h.Unlock(f.ID)
	}

	// Defensive staleness checks: the separator at idx must be exactly
	// A's high value and the adjacent pointers must be A and B. The
	// callers verify this from their own snapshots; re-verifying here
	// keeps the invariant local.
	if f.Children[idx] != a.ID || idx+1 >= len(f.Children) || f.Children[idx+1] != b.ID {
		unlockAll()
		return rearrangeResult{}, fmt.Errorf("%w: rearrange with stale parent view", base.ErrCorrupt)
	}
	if !f.SeparatorAfter(idx).Equal(a.High) || !a.High.Equal(b.Low) {
		unlockAll()
		return rearrangeResult{}, fmt.Errorf("%w: separator/high mismatch at parent %d idx %d", base.ErrCorrupt, f.ID, idx)
	}

	if a.Pairs() >= k && b.Pairs() >= k {
		// Footnote 15: A no longer needs compression; unlock without
		// rewriting.
		unlockAll()
		return rearrangeResult{outcome: outcomeSkipped}, nil
	}

	combined := a.Pairs() + b.Pairs()
	if !a.Leaf {
		combined++ // the separator is pulled down on an internal merge
	}
	if combined <= 2*k {
		return merge(st, h, f, idx, a, b)
	}
	return redistribute(st, h, f, idx, a, b)
}

// merge moves all of B's pairs into A, gives A B's high value and link,
// deletes the separator and B's pointer from F, and marks B deleted
// with an outlink to A (§5.2 case 1 + the [4] forwarding-pointer
// technique). Write order: A (gains data), F, B.
func merge(st node.Store, h *locks.Holder, f *node.Node, idx int, a, b *node.Node) (rearrangeResult, error) {
	keys := keyRuns(f, idx, a, b)
	a2 := rebuilt(a, len(keys[0])+len(keys[1])+len(keys[2]))
	span(a2.Keys, 0, keys[:]...)
	span(a2.Vals, 0, a.Vals, b.Vals)
	span(a2.Children, 0, a.Children, b.Children)
	a2.High = b.High
	a2.Link = b.Link

	f2 := f.RemoveSeparator(idx)

	b2 := &node.Node{
		ID:      b.ID,
		Leaf:    b.Leaf,
		Deleted: true,
		OutLink: a.ID,
		Low:     b.Low,
		High:    b.High,
	}

	if err := st.Put(a2); err != nil {
		h.UnlockAll()
		return rearrangeResult{}, err
	}
	h.Unlock(a.ID)
	if err := st.Put(f2); err != nil {
		h.UnlockAll()
		return rearrangeResult{}, err
	}
	h.Unlock(f.ID)
	if err := st.Put(b2); err != nil {
		h.UnlockAll()
		return rearrangeResult{}, err
	}
	h.Unlock(b.ID)

	return rearrangeResult{
		outcome:  outcomeMerged,
		parent:   f2,
		survivor: a2,
		deleted:  b.ID,
	}, nil
}

// redistribute shifts pairs between A and B so both end with at least
// k, updating the separator in F and the adjacent bounds in A and B
// (§5.2 case 2). Write order follows the acknowledgment's rule: the
// child that gains data, then the parent, then the other child — which
// confines the wrong-node hazard to the "data moved left, reader holds
// stale B" case that the low-value check detects.
func redistribute(st node.Store, h *locks.Holder, f *node.Node, idx int, a, b *node.Node) (rearrangeResult, error) {
	// A keeps the first m keys of the combined sequence. B's start after
	// them, or, between internal nodes, after the one that moves up.
	keys := keyRuns(f, idx, a, b)
	n := len(keys[0]) + len(keys[1]) + len(keys[2])
	m, up := (n+1)/2, 0
	if !a.Leaf {
		m, up = n/2, 1
	}
	a2, b2 := rebuilt(a, m), rebuilt(b, n-m-up)
	span(a2.Keys, 0, keys[:]...)
	span(b2.Keys, m+up, keys[:]...)
	var sep [1]base.Key // the leaf separator stays in A; an internal one moves up
	span(sep[:], m-1+up, keys[:]...)
	newSep := sep[0]
	span(a2.Vals, 0, a.Vals, b.Vals)
	span(b2.Vals, m, a.Vals, b.Vals)
	span(a2.Children, 0, a.Children, b.Children)
	span(b2.Children, m+1, a.Children, b.Children)
	a2.High = base.FiniteBound(newSep)
	b2.Low = base.FiniteBound(newSep)

	f2 := f.Clone()
	f2.Keys[idx] = newSep

	// Who gains data? If A ends with more pairs than it had, data moved
	// B→A (write A first); otherwise A→B (write B first).
	aGains := a2.Pairs() > a.Pairs()
	first, second := b2, a2
	firstOld, secondOld := b.ID, a.ID
	if aGains {
		first, second = a2, b2
		firstOld, secondOld = a.ID, b.ID
	}
	if err := st.Put(first); err != nil {
		h.UnlockAll()
		return rearrangeResult{}, err
	}
	h.Unlock(firstOld)
	if err := st.Put(f2); err != nil {
		h.UnlockAll()
		return rearrangeResult{}, err
	}
	h.Unlock(f.ID)
	if err := st.Put(second); err != nil {
		h.UnlockAll()
		return rearrangeResult{}, err
	}
	h.Unlock(secondOld)

	return rearrangeResult{
		outcome:  outcomeRedistributed,
		parent:   f2,
		survivor: a2,
		deleted:  base.NilPage,
	}, nil
}

// keyRuns returns A's and B's keys as one sequence of runs, with the old
// separator between them when the nodes are internal.
func keyRuns(f *node.Node, idx int, a, b *node.Node) [3][]base.Key {
	if a.Leaf {
		return [3][]base.Key{a.Keys, b.Keys}
	}
	return [3][]base.Key{a.Keys, f.Keys[idx : idx+1], b.Keys}
}

// span fills dst with the elements from index from on of the runs taken
// as one sequence, so a rebuilt node is copied straight out of the two
// it replaces.
func span[T any](dst []T, from int, runs ...[]T) {
	for _, r := range runs {
		if from >= len(r) {
			from -= len(r)
			continue
		}
		dst = dst[copy(dst, r[from:]):]
		from = 0
	}
}

// rebuilt returns a new version of n in one block: n's header, and
// nkeys keys and their values or children for the caller to fill.
func rebuilt(n *node.Node, nkeys int) *node.Node {
	c := node.New(n.Leaf, nkeys)
	c.ID, c.Root, c.Deleted, c.OutLink = n.ID, n.Root, n.Deleted, n.OutLink
	c.Low, c.High, c.Link = n.Low, n.High, n.Link
	return c
}
