package blink

import (
	"fmt"

	"blinktree/internal/base"
	"blinktree/internal/node"
)

// Check validates every structural invariant of the Blink-tree. It must
// run quiesced (no concurrent mutators or compressors mid-flight). The
// checks encode §2.1's structure and the Fig. 2 observation that each
// level repeats the (high value, link) sequence of the level below:
//
//  1. prime block consistency (levels, leftmost array, root);
//  2. per level: the right-link chain is finite, nodes are live and
//     locally valid, low/high bounds tile the key space exactly
//     (−∞ … +∞ with each node's low equal to its left neighbour's
//     high), and only level 0 holds leaves;
//  3. across levels: concatenating the child lists of level i+1 in
//     chain order yields exactly the chain of level i, and each child's
//     (low, high] equals the separator interval its parent assigns;
//  4. globally: leaf keys strictly ascend across the whole chain, and
//     the pair count matches Len.
func (t *Tree) Check() error {
	p, err := t.store.ReadPrime()
	if err != nil {
		return err
	}
	if p.Levels == 0 {
		return fmt.Errorf("%w: prime block has no levels", base.ErrCorrupt)
	}
	if len(p.Leftmost) != p.Levels {
		return fmt.Errorf("%w: prime leftmost has %d entries for %d levels", base.ErrCorrupt, len(p.Leftmost), p.Levels)
	}
	if p.Leftmost[p.Levels-1] != p.Root {
		return fmt.Errorf("%w: prime root %d != top leftmost %d", base.ErrCorrupt, p.Root, p.Leftmost[p.Levels-1])
	}

	root, err := t.store.Get(p.Root)
	if err != nil {
		return err
	}
	if !root.Root {
		return fmt.Errorf("%w: root %d missing root bit", base.ErrCorrupt, p.Root)
	}

	var pairs int
	var prevChain []base.PageID
	for level := p.Levels - 1; level >= 0; level-- {
		chain, err := t.checkLevel(p, level)
		if err != nil {
			return fmt.Errorf("level %d: %w", level, err)
		}
		if level < p.Levels-1 {
			// Invariant 3: children of the level above are exactly this
			// chain (Fig. 2).
			kids, err := t.childrenOf(prevChain)
			if err != nil {
				return err
			}
			if err := samePageSeq(kids, chain); err != nil {
				return fmt.Errorf("level %d children vs level %d chain: %w", level+1, level, err)
			}
		}
		if level == 0 {
			n, err := t.countPairs(chain)
			if err != nil {
				return err
			}
			pairs = n
		}
		prevChain = chain
	}
	if got := t.Len(); got != pairs {
		return fmt.Errorf("%w: Len() = %d but leaves hold %d pairs", base.ErrCorrupt, got, pairs)
	}
	return nil
}

// checkLevel validates one level's chain and returns it in order.
func (t *Tree) checkLevel(p node.Prime, level int) ([]base.PageID, error) {
	var chain []base.PageID
	id := p.Leftmost[level]
	prevHigh := base.NegInfBound()
	limit := t.store.Pages() + 2
	for id != base.NilPage {
		if len(chain) > limit {
			return nil, fmt.Errorf("%w: link cycle", base.ErrCorrupt)
		}
		n, err := t.store.Get(id)
		if err != nil {
			return nil, err
		}
		if n.Deleted {
			return nil, fmt.Errorf("%w: deleted node %d in chain", base.ErrCorrupt, id)
		}
		if err := n.Validate(); err != nil {
			return nil, err
		}
		if n.Leaf != (level == 0) {
			return nil, fmt.Errorf("%w: node %d leaf=%v at level %d", base.ErrCorrupt, id, n.Leaf, level)
		}
		if !n.Low.Equal(prevHigh) {
			return nil, fmt.Errorf("%w: node %d low %v != left neighbour high %v", base.ErrCorrupt, id, n.Low, prevHigh)
		}
		if n.Root != (id == p.Root) {
			return nil, fmt.Errorf("%w: node %d root bit %v (root is %d)", base.ErrCorrupt, id, n.Root, p.Root)
		}
		if n.Pairs() > t.capacity() {
			return nil, fmt.Errorf("%w: node %d holds %d > 2k pairs", base.ErrCorrupt, id, n.Pairs())
		}
		chain = append(chain, id)
		prevHigh = n.High
		id = n.Link
	}
	if prevHigh.Kind != base.PosInf {
		return nil, fmt.Errorf("%w: chain ends with high %v, want +inf", base.ErrCorrupt, prevHigh)
	}
	return chain, nil
}

// childrenOf concatenates the child lists of the given internal nodes,
// also verifying each child's bounds against its separator interval.
func (t *Tree) childrenOf(chain []base.PageID) ([]base.PageID, error) {
	var kids []base.PageID
	for _, id := range chain {
		f, err := t.store.Get(id)
		if err != nil {
			return nil, err
		}
		for i, c := range f.Children {
			child, err := t.store.Get(c)
			if err != nil {
				return nil, fmt.Errorf("parent %d child %d: %w", id, c, err)
			}
			lo, hi := f.SeparatorBefore(i), f.SeparatorAfter(i)
			if !child.Low.Equal(lo) || !child.High.Equal(hi) {
				return nil, fmt.Errorf("%w: child %d of %d spans (%v,%v], parent assigns (%v,%v]",
					base.ErrCorrupt, c, id, child.Low, child.High, lo, hi)
			}
			kids = append(kids, c)
		}
	}
	return kids, nil
}

func (t *Tree) countPairs(chain []base.PageID) (int, error) {
	total := 0
	var last base.Bound // strictly ascending watermark, starts −∞
	for _, id := range chain {
		n, err := t.store.Get(id)
		if err != nil {
			return 0, err
		}
		for _, k := range n.Keys {
			if !last.Less(k) {
				return 0, fmt.Errorf("%w: leaf key %d not above watermark %v", base.ErrCorrupt, k, last)
			}
			last = base.FiniteBound(k)
		}
		total += n.Pairs()
	}
	return total, nil
}

func samePageSeq(a, b []base.PageID) error {
	if len(a) != len(b) {
		return fmt.Errorf("%w: %d children vs %d chain nodes", base.ErrCorrupt, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%w: position %d: child %d != chain %d", base.ErrCorrupt, i, a[i], b[i])
		}
	}
	return nil
}

// Occupancy describes how full the tree's nodes are; the compression
// tests assert on it before and after compressing.
type Occupancy struct {
	Nodes     int     // live nodes, all levels
	Leaves    int     // live leaves
	Pairs     int     // pairs stored in leaves
	Underfull int     // non-root nodes with < k pairs
	MeanFill  float64 // mean pairs/(2k) over non-root nodes
	Height    int
}

// OccupancyStats walks the quiesced tree and reports fill statistics.
func (t *Tree) OccupancyStats() (Occupancy, error) {
	p, err := t.store.ReadPrime()
	if err != nil {
		return Occupancy{}, err
	}
	occ := Occupancy{Height: p.Levels}
	var fillSum float64
	var fillN int
	for level := 0; level < p.Levels; level++ {
		id := p.Leftmost[level]
		for id != base.NilPage {
			n, err := t.store.Get(id)
			if err != nil {
				return Occupancy{}, err
			}
			occ.Nodes++
			if n.Leaf {
				occ.Leaves++
				occ.Pairs += n.Pairs()
			}
			if !n.Root {
				if n.Pairs() < t.k {
					occ.Underfull++
				}
				fillSum += float64(n.Pairs()) / float64(t.capacity())
				fillN++
			}
			id = n.Link
		}
	}
	if fillN > 0 {
		occ.MeanFill = fillSum / float64(fillN)
	}
	return occ, nil
}
