package blink

import (
	"fmt"

	"blinktree/internal/base"
	"blinktree/internal/node"
)

// BulkLoad builds the tree's content bottom-up from a sorted stream of
// strictly ascending pairs. It is dramatically faster than repeated
// Insert for initial loads because it writes each page exactly once and
// packs nodes to the target fill fraction.
//
// BulkLoad requires an EMPTY tree (as produced by New over a fresh
// store) and exclusive access — it is the one operation that is not
// concurrent; the tree is fully usable (and concurrent) afterwards.
// fill is the target fraction of capacity per node in (0.5, 1.0]; 0
// means 1.0 (fully packed, the B*-tree ideal for read-mostly data);
// loads expecting further inserts should use ~0.7.
func (t *Tree) BulkLoad(pairs func() (base.Key, base.Value, bool), fill float64) error {
	if err := t.checkOpen(); err != nil {
		return err
	}
	if t.Len() != 0 {
		return fmt.Errorf("blink: BulkLoad on non-empty tree (%d pairs)", t.Len())
	}
	if fill == 0 {
		fill = 1.0
	}
	if fill <= 0.5 || fill > 1.0 {
		return fmt.Errorf("blink: BulkLoad fill %.2f outside (0.5, 1.0]", fill)
	}
	per := int(float64(t.capacity()) * fill)
	if per < t.k {
		per = t.k
	}

	p, err := t.store.ReadPrime()
	if err != nil {
		return err
	}
	oldRoot := p.Root

	level, highs, count, err := t.buildLeafLevel(pairs, per)
	if err != nil {
		return err
	}
	if len(level) == 0 {
		return nil // empty input: tree unchanged
	}
	leftmost := []base.PageID{level[0]}
	for len(level) > 1 {
		if level, highs, err = t.buildInternalLevel(level, highs, per); err != nil {
			return err
		}
		leftmost = append(leftmost, level[0])
	}

	// Stamp the root bit and publish the prime block.
	rootN, err := t.store.Get(level[0])
	if err != nil {
		return err
	}
	r2 := rootN.Clone()
	r2.Root = true
	if err := t.store.Put(r2); err != nil {
		return err
	}
	if err := t.store.WritePrime(node.Prime{
		Root:     level[0],
		Levels:   len(leftmost),
		Leftmost: leftmost,
	}); err != nil {
		return err
	}
	t.stats.ops[0].length.Add(int64(count))
	// Retire the placeholder root left over from New.
	if oldRoot != base.NilPage && oldRoot != level[0] {
		if t.rec != nil {
			t.rec.Retire(oldRoot)
		} else if err := t.store.Free(oldRoot); err != nil {
			return err
		}
	}
	return nil
}

// buildLeafLevel consumes the sorted pair stream into packed leaves,
// links them, and returns their ids, high bounds and the pair count.
func (t *Tree) buildLeafLevel(pairs func() (base.Key, base.Value, bool), per int) ([]base.PageID, []base.Bound, int, error) {
	var leaves []*node.Node
	var cur *node.Node
	last := base.NegInfBound()
	count := 0
	for {
		k, v, ok := pairs()
		if !ok {
			break
		}
		if !last.Less(k) {
			return nil, nil, 0, fmt.Errorf("%w: BulkLoad input not strictly ascending at key %d", base.ErrCorrupt, k)
		}
		if cur == nil || len(cur.Keys) >= per {
			id, err := t.store.Allocate()
			if err != nil {
				return nil, nil, 0, err
			}
			// Sized to the fill up front. Grown by append, the arrays
			// would round up to a power of two (32 slots for 22 pairs
			// at k = 16, fill 0.7), and no later write uses the spare
			// slots (every edit builds a fresh slice), so they would
			// stay live heap for the node's lifetime.
			cur = &node.Node{ID: id, Leaf: true, Keys: make([]base.Key, 0, per), Vals: make([]base.Value, 0, per)}
			leaves = append(leaves, cur)
		}
		cur.Keys = append(cur.Keys, k)
		cur.Vals = append(cur.Vals, v)
		last = base.FiniteBound(k)
		count++
	}
	if len(leaves) == 0 {
		return nil, nil, 0, nil
	}
	leaves, err := t.rebalanceTailLeaf(leaves)
	if err != nil {
		return nil, nil, 0, err
	}
	ids, highs, err := t.sealChain(leaves)
	return ids, highs, count, err
}

// rebalanceTailLeaf fixes the last leaf when it is under k pairs:
// either merge it into its predecessor (when both fit in one node) or
// split the combined pairs evenly.
func (t *Tree) rebalanceTailLeaf(leaves []*node.Node) ([]*node.Node, error) {
	if len(leaves) < 2 {
		return leaves, nil
	}
	lastL, prevL := leaves[len(leaves)-1], leaves[len(leaves)-2]
	q := len(lastL.Keys)
	if q >= t.k {
		return leaves, nil
	}
	combined := len(prevL.Keys) + q
	if combined <= t.capacity() {
		prevL.Keys = append(prevL.Keys, lastL.Keys...)
		prevL.Vals = append(prevL.Vals, lastL.Vals...)
		if err := t.store.Free(lastL.ID); err != nil {
			return nil, err
		}
		return leaves[:len(leaves)-1], nil
	}
	need := (combined+1)/2 - q
	cut := len(prevL.Keys) - need
	lastL.Keys = append(append([]base.Key(nil), prevL.Keys[cut:]...), lastL.Keys...)
	lastL.Vals = append(append([]base.Value(nil), prevL.Vals[cut:]...), lastL.Vals...)
	prevL.Keys = prevL.Keys[:cut]
	prevL.Vals = prevL.Vals[:cut]
	return leaves, nil
}

// sealChain sets low/high bounds and right links across a finished
// level (leaf highs are their largest key, §2.1's creation rule; the
// rightmost node gets +∞/nil) and writes every node.
func (t *Tree) sealChain(nodes []*node.Node) ([]base.PageID, []base.Bound, error) {
	ids := make([]base.PageID, len(nodes))
	highs := make([]base.Bound, len(nodes))
	low := base.NegInfBound()
	for i, n := range nodes {
		n.Low = low
		if i < len(nodes)-1 {
			if n.Leaf {
				n.High = base.FiniteBound(n.Keys[len(n.Keys)-1])
			}
			// Internal nodes had High set when they were closed.
			n.Link = nodes[i+1].ID
		} else {
			n.High = base.PosInfBound()
			n.Link = base.NilPage
		}
		low = n.High
		if err := t.store.Put(n); err != nil {
			return nil, nil, err
		}
		ids[i] = n.ID
		highs[i] = n.High
	}
	return ids, highs, nil
}

// buildInternalLevel packs one internal level over children (with their
// high bounds, parallel slices) and returns the new level.
func (t *Tree) buildInternalLevel(children []base.PageID, highs []base.Bound, per int) ([]base.PageID, []base.Bound, error) {
	var nodes []*node.Node
	var cur *node.Node
	for i, child := range children {
		if cur != nil && len(cur.Keys) < per {
			// The separator before this child is the previous child's
			// high value — exactly the Fig. 2 sequence.
			sep := highs[i-1]
			if !sep.IsFinite() {
				return nil, nil, fmt.Errorf("%w: non-finite separator during bulk load", base.ErrCorrupt)
			}
			cur.Keys = append(cur.Keys, sep.K)
			cur.Children = append(cur.Children, child)
			continue
		}
		if cur != nil {
			cur.High = highs[i-1] // closes at the boundary separator
		}
		id, err := t.store.Allocate()
		if err != nil {
			return nil, nil, err
		}
		cur = &node.Node{ID: id, Children: []base.PageID{child}}
		nodes = append(nodes, cur)
	}
	nodes, err := t.rebalanceTailInternal(nodes)
	if err != nil {
		return nil, nil, err
	}
	return t.sealChain(nodes)
}

// rebalanceTailInternal fixes the last internal node when it is under k
// separators: merge into the predecessor (pulling the boundary
// separator down) when everything fits, otherwise move separators and
// children across so both halves hold ≥ k.
func (t *Tree) rebalanceTailInternal(nodes []*node.Node) ([]*node.Node, error) {
	if len(nodes) < 2 {
		return nodes, nil
	}
	lastN, prevN := nodes[len(nodes)-1], nodes[len(nodes)-2]
	q := len(lastN.Keys)
	if q >= t.k {
		return nodes, nil
	}
	// The boundary separator between the two nodes is prevN.High (set
	// when prevN was closed); merging or rebalancing pulls it down.
	boundary := prevN.High
	if !boundary.IsFinite() {
		return nil, fmt.Errorf("%w: non-finite boundary during bulk load", base.ErrCorrupt)
	}
	combined := len(prevN.Keys) + 1 + q
	if combined <= t.capacity() {
		prevN.Keys = append(append(prevN.Keys, boundary.K), lastN.Keys...)
		prevN.Children = append(prevN.Children, lastN.Children...)
		prevN.High = base.Bound{} // reopened; sealChain/next close sets it
		if err := t.store.Free(lastN.ID); err != nil {
			return nil, err
		}
		return nodes[:len(nodes)-1], nil
	}
	// Split the combined sequence so lastN ends with target keys.
	target := combined / 2
	need := target - q // separators to add to lastN (≥ 1)
	cut := len(prevN.Keys) - need
	newBoundary := prevN.Keys[cut]
	movedKeys := append([]base.Key(nil), prevN.Keys[cut+1:]...)
	movedKids := append([]base.PageID(nil), prevN.Children[cut+1:]...)
	lastN.Keys = append(append(movedKeys, boundary.K), lastN.Keys...)
	lastN.Children = append(movedKids, lastN.Children...)
	prevN.Keys = prevN.Keys[:cut]
	prevN.Children = prevN.Children[:cut+1]
	prevN.High = base.FiniteBound(newBoundary)
	return nodes, nil
}
