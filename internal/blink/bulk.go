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

	// sealChain set the root bit on the level of one node; publish it.
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

// nodeSizes divides the n entries of one level — a leaf level's pairs,
// or an internal level's children, each node holding one pair fewer than
// children — into node sizes: nodes of chunk entries and a last node of
// the rest. A last node under k pairs merges into its predecessor when
// the two fit one node, and otherwise takes half of their pairs.
func (t *Tree) nodeSizes(n, chunk int, leaf bool) []int {
	off := 1 // children minus pairs
	if leaf {
		off = 0
	}
	var sizes []int
	for ; n > chunk; n -= chunk {
		sizes = append(sizes, chunk)
	}
	if n > 0 {
		sizes = append(sizes, n)
	}
	last := len(sizes) - 1
	if last < 1 || sizes[last]-off >= t.k {
		return sizes
	}
	both := sizes[last-1] + sizes[last]
	if combined := both - off; combined > t.capacity() {
		sizes[last] = (combined+1-off)/2 + off
		sizes[last-1] = both - sizes[last]
		return sizes
	}
	sizes[last-1] = both
	return sizes[:last]
}

// buildLeafLevel consumes the sorted pair stream into leaves, links
// them, and returns their ids, high bounds and the pair count. Each leaf
// is allocated once, at its final size: pairs wait in a buffer until the
// leaf they go to is known. nodeSizes changes only the last two leaves
// of a level, so a buffer of 2·per pairs is enough — when it is full,
// its first per pairs are a leaf whatever follows.
func (t *Tree) buildLeafLevel(pairs func() (base.Key, base.Value, bool), per int) ([]base.PageID, []base.Bound, int, error) {
	keys := make([]base.Key, 0, 2*per)
	vals := make([]base.Value, 0, 2*per)
	var leaves []*node.Node
	emit := func(m int) error {
		id, err := t.store.Allocate()
		if err != nil {
			return err
		}
		n := node.New(true, m)
		n.ID = id
		copy(n.Keys, keys)
		copy(n.Vals, vals)
		n.High = base.FiniteBound(n.Keys[m-1])
		keys = append(keys[:0], keys[m:]...)
		vals = append(vals[:0], vals[m:]...)
		leaves = append(leaves, n)
		return nil
	}
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
		if len(keys) == 2*per {
			if err := emit(per); err != nil {
				return nil, nil, 0, err
			}
		}
		keys, vals = append(keys, k), append(vals, v)
		last = base.FiniteBound(k)
		count++
	}
	for _, m := range t.nodeSizes(len(keys), per, true) {
		if err := emit(m); err != nil {
			return nil, nil, 0, err
		}
	}
	if len(leaves) == 0 {
		return nil, nil, 0, nil
	}
	ids, highs, err := t.sealChain(leaves)
	return ids, highs, count, err
}

// buildInternalLevel builds one internal level over children (with
// their high bounds, parallel slices) and returns the new level. The
// separators are the children's high values — exactly the Fig. 2
// sequence — and a node's high value is its last child's.
func (t *Tree) buildInternalLevel(children []base.PageID, highs []base.Bound, per int) ([]base.PageID, []base.Bound, error) {
	var nodes []*node.Node
	i := 0
	for _, m := range t.nodeSizes(len(children), per+1, false) {
		id, err := t.store.Allocate()
		if err != nil {
			return nil, nil, err
		}
		n := node.New(false, m-1)
		n.ID = id
		copy(n.Children, children[i:i+m])
		for j, sep := range highs[i : i+m-1] {
			if !sep.IsFinite() {
				return nil, nil, fmt.Errorf("%w: non-finite separator during bulk load", base.ErrCorrupt)
			}
			n.Keys[j] = sep.K
		}
		n.High = highs[i+m-1]
		nodes = append(nodes, n)
		i += m
	}
	return t.sealChain(nodes)
}

// sealChain sets low bounds and right links across a finished level
// (the rightmost node gets +∞/nil, and is the root when it is the only
// one) and writes every node.
func (t *Tree) sealChain(nodes []*node.Node) ([]base.PageID, []base.Bound, error) {
	ids := make([]base.PageID, len(nodes))
	highs := make([]base.Bound, len(nodes))
	low := base.NegInfBound()
	for i, n := range nodes {
		n.Low = low
		if i < len(nodes)-1 {
			n.Link = nodes[i+1].ID
		} else {
			n.High = base.PosInfBound()
			n.Link = base.NilPage
			n.Root = i == 0
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
