// Package btree is a plain, sequential B⁺-tree with full rebalancing
// (borrow and merge on deletion). It serves two roles in the
// reproduction: the substrate of the coarse-grained baseline (one
// RWMutex around the whole tree — the zero-concurrency floor the paper
// improves on) and a reference oracle for differential tests.
//
// It uses the classic minimum-degree convention: with degree k, every
// node except the root holds between k−1 and 2k−1 keys, which is what
// makes single-pass preemptive splitting (on insert) and preemptive
// fill (on delete) possible.
//
// It is NOT safe for concurrent use; wrap it (see baseline/coarse).
package btree

import (
	"fmt"
	"sort"

	"blinktree/internal/base"
)

// Tree is a sequential B⁺-tree of minimum degree k: nodes hold between
// k−1 and 2k−1 keys (except the root).
type Tree struct {
	k    int
	root *bnode
	size int
}

type bnode struct {
	leaf     bool
	keys     []base.Key
	vals     []base.Value // leaves
	children []*bnode     // internal
	next     *bnode       // leaf chain for scans
}

// New returns an empty tree of minimum degree k (≥ 2).
func New(k int) (*Tree, error) {
	if k < 2 {
		return nil, fmt.Errorf("btree: k %d < 2", k)
	}
	return &Tree{k: k, root: &bnode{leaf: true}}, nil
}

// cap is the maximum keys per node (2k−1); min is k−1.
func (t *Tree) cap() int { return 2*t.k - 1 }
func (t *Tree) min() int { return t.k - 1 }

// Len returns the number of stored pairs.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels.
func (t *Tree) Height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		h++
	}
	return h
}

func (n *bnode) findKey(k base.Key) (int, bool) {
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= k })
	return i, i < len(n.keys) && n.keys[i] == k
}

// childIndex returns which child to descend into: child i covers keys
// in (keys[i-1], keys[i]].
func (n *bnode) childIndex(k base.Key) int {
	return sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= k })
}

// Search returns the value under k or ErrNotFound.
func (t *Tree) Search(k base.Key) (base.Value, error) {
	n := t.root
	for !n.leaf {
		n = n.children[n.childIndex(k)]
	}
	if i, ok := n.findKey(k); ok {
		return n.vals[i], nil
	}
	return 0, base.ErrNotFound
}

// Insert stores v under k, or returns ErrDuplicate.
func (t *Tree) Insert(k base.Key, v base.Value) error {
	// Preemptive root split keeps the recursion simple.
	if len(t.root.keys) == t.cap() {
		old := t.root
		sep, right := old.split()
		t.root = &bnode{
			keys:     []base.Key{sep},
			children: []*bnode{old, right},
		}
	}
	if err := t.insertNonFull(t.root, k, v); err != nil {
		return err
	}
	t.size++
	return nil
}

// split divides a full node in half, returning the separator and the
// new right node. For internal nodes the separator moves up
// exclusively; leaves keep it (B⁺ semantics).
func (n *bnode) split() (base.Key, *bnode) {
	if n.leaf {
		m := (len(n.keys) + 1) / 2
		right := &bnode{
			leaf: true,
			keys: append([]base.Key(nil), n.keys[m:]...),
			vals: append([]base.Value(nil), n.vals[m:]...),
			next: n.next,
		}
		n.keys = n.keys[:m:m]
		n.vals = n.vals[:m:m]
		n.next = right
		return n.keys[m-1], right
	}
	m := len(n.keys) / 2
	sep := n.keys[m]
	right := &bnode{
		keys:     append([]base.Key(nil), n.keys[m+1:]...),
		children: append([]*bnode(nil), n.children[m+1:]...),
	}
	n.keys = n.keys[:m:m]
	n.children = n.children[: m+1 : m+1]
	return sep, right
}

func (t *Tree) insertNonFull(n *bnode, k base.Key, v base.Value) error {
	for !n.leaf {
		i := n.childIndex(k)
		child := n.children[i]
		if len(child.keys) == t.cap() {
			sep, right := child.split()
			n.keys = append(n.keys, 0)
			copy(n.keys[i+1:], n.keys[i:])
			n.keys[i] = sep
			n.children = append(n.children, nil)
			copy(n.children[i+2:], n.children[i+1:])
			n.children[i+1] = right
			if k > sep {
				child = right
			}
		}
		n = child
	}
	i, ok := n.findKey(k)
	if ok {
		return base.ErrDuplicate
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = k
	n.vals = append(n.vals, 0)
	copy(n.vals[i+1:], n.vals[i:])
	n.vals[i] = v
	return nil
}

// leafFor descends to the leaf that would hold k.
func (t *Tree) leafFor(k base.Key) *bnode {
	n := t.root
	for !n.leaf {
		n = n.children[n.childIndex(k)]
	}
	return n
}

// Upsert stores v under k, returning the previously stored value and
// whether one existed.
func (t *Tree) Upsert(k base.Key, v base.Value) (base.Value, bool, error) {
	n := t.leafFor(k)
	if i, ok := n.findKey(k); ok {
		old := n.vals[i]
		n.vals[i] = v
		return old, true, nil
	}
	return 0, false, t.Insert(k, v)
}

// GetOrInsert returns the value under k, inserting v first when absent.
func (t *Tree) GetOrInsert(k base.Key, v base.Value) (base.Value, bool, error) {
	n := t.leafFor(k)
	if i, ok := n.findKey(k); ok {
		return n.vals[i], true, nil
	}
	return v, false, t.Insert(k, v)
}

// Update replaces the value under k with fn(current), or ErrNotFound.
func (t *Tree) Update(k base.Key, fn func(base.Value) base.Value) (base.Value, error) {
	n := t.leafFor(k)
	i, ok := n.findKey(k)
	if !ok {
		return 0, base.ErrNotFound
	}
	n.vals[i] = fn(n.vals[i])
	return n.vals[i], nil
}

// CompareAndSwap replaces the value under k with new when it equals
// old. A missing key is ErrNotFound; a mismatch is (false, nil).
func (t *Tree) CompareAndSwap(k base.Key, old, new base.Value) (bool, error) {
	n := t.leafFor(k)
	i, ok := n.findKey(k)
	if !ok {
		return false, base.ErrNotFound
	}
	if n.vals[i] != old {
		return false, nil
	}
	n.vals[i] = new
	return true, nil
}

// CompareAndDelete removes k when its value equals old, with the same
// convention as CompareAndSwap.
func (t *Tree) CompareAndDelete(k base.Key, old base.Value) (bool, error) {
	n := t.leafFor(k)
	i, ok := n.findKey(k)
	if !ok {
		return false, base.ErrNotFound
	}
	if n.vals[i] != old {
		return false, nil
	}
	return true, t.Delete(k)
}

// Delete removes k, rebalancing so every non-root node keeps ≥ k keys.
func (t *Tree) Delete(k base.Key) error {
	err := t.deleteFrom(t.root, k)
	// Even a miss may have merged the root's last two children on the
	// way down.
	if !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	if err != nil {
		return err
	}
	t.size--
	return nil
}

// deleteFrom removes k from the subtree at n, guaranteeing on entry
// that n has > k keys (or is the root) so a child removal cannot
// underflow it.
func (t *Tree) deleteFrom(n *bnode, k base.Key) error {
	for !n.leaf {
		i := n.childIndex(k)
		child := n.children[i]
		if len(child.keys) <= t.min() {
			i = t.fill(n, i)
			child = n.children[i]
		}
		n = child
	}
	i, ok := n.findKey(k)
	if !ok {
		return base.ErrNotFound
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
	return nil
}

// fill ensures n.children[i] has more than min keys by borrowing from
// a sibling or merging, returning the (possibly shifted) index of the
// child that now covers the original child's range.
func (t *Tree) fill(n *bnode, i int) int {
	if i > 0 && len(n.children[i-1].keys) > t.min() {
		t.borrowFromLeft(n, i)
		return i
	}
	if i < len(n.children)-1 && len(n.children[i+1].keys) > t.min() {
		t.borrowFromRight(n, i)
		return i
	}
	if i > 0 {
		t.mergeChildren(n, i-1)
		return i - 1
	}
	t.mergeChildren(n, i)
	return i
}

func (t *Tree) borrowFromLeft(n *bnode, i int) {
	child, left := n.children[i], n.children[i-1]
	if child.leaf {
		last := len(left.keys) - 1
		child.keys = append([]base.Key{left.keys[last]}, child.keys...)
		child.vals = append([]base.Value{left.vals[last]}, child.vals...)
		left.keys = left.keys[:last]
		left.vals = left.vals[:last]
		n.keys[i-1] = left.keys[last-1]
		return
	}
	last := len(left.keys) - 1
	child.keys = append([]base.Key{n.keys[i-1]}, child.keys...)
	child.children = append([]*bnode{left.children[last+1]}, child.children...)
	n.keys[i-1] = left.keys[last]
	left.keys = left.keys[:last]
	left.children = left.children[:last+1]
}

func (t *Tree) borrowFromRight(n *bnode, i int) {
	child, right := n.children[i], n.children[i+1]
	if child.leaf {
		child.keys = append(child.keys, right.keys[0])
		child.vals = append(child.vals, right.vals[0])
		right.keys = right.keys[1:]
		right.vals = right.vals[1:]
		n.keys[i] = child.keys[len(child.keys)-1]
		return
	}
	child.keys = append(child.keys, n.keys[i])
	child.children = append(child.children, right.children[0])
	n.keys[i] = right.keys[0]
	right.keys = right.keys[1:]
	right.children = right.children[1:]
}

// mergeChildren folds child i+1 into child i, pulling the separator
// down for internal nodes.
func (t *Tree) mergeChildren(n *bnode, i int) {
	left, right := n.children[i], n.children[i+1]
	if left.leaf {
		left.keys = append(left.keys, right.keys...)
		left.vals = append(left.vals, right.vals...)
		left.next = right.next
	} else {
		left.keys = append(left.keys, n.keys[i])
		left.keys = append(left.keys, right.keys...)
		left.children = append(left.children, right.children...)
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

// Range calls fn for each pair with lo ≤ key ≤ hi in ascending order.
func (t *Tree) Range(lo, hi base.Key, fn func(base.Key, base.Value) bool) error {
	if hi < lo {
		return nil
	}
	n := t.root
	for !n.leaf {
		n = n.children[n.childIndex(lo)]
	}
	for n != nil {
		for i, k := range n.keys {
			if k < lo {
				continue
			}
			if k > hi {
				return nil
			}
			if !fn(k, n.vals[i]) {
				return nil
			}
		}
		n = n.next
	}
	return nil
}

// Check validates structural invariants.
func (t *Tree) Check() error {
	count, _, err := t.checkNode(t.root, nil, nil, true)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("%w: size %d but %d pairs found", base.ErrCorrupt, t.size, count)
	}
	return nil
}

func (t *Tree) checkNode(n *bnode, lo, hi *base.Key, isRoot bool) (int, int, error) {
	if !isRoot && len(n.keys) < t.min() {
		return 0, 0, fmt.Errorf("%w: node underfull (%d < %d)", base.ErrCorrupt, len(n.keys), t.min())
	}
	if len(n.keys) > t.cap() {
		return 0, 0, fmt.Errorf("%w: node overfull (%d > %d)", base.ErrCorrupt, len(n.keys), t.cap())
	}
	for i := 1; i < len(n.keys); i++ {
		if n.keys[i-1] >= n.keys[i] {
			return 0, 0, fmt.Errorf("%w: keys out of order", base.ErrCorrupt)
		}
	}
	for _, k := range n.keys {
		if lo != nil && k <= *lo {
			return 0, 0, fmt.Errorf("%w: key %d ≤ lower bound %d", base.ErrCorrupt, k, *lo)
		}
		if hi != nil && k > *hi {
			return 0, 0, fmt.Errorf("%w: key %d > upper bound %d", base.ErrCorrupt, k, *hi)
		}
	}
	if n.leaf {
		if len(n.vals) != len(n.keys) {
			return 0, 0, fmt.Errorf("%w: leaf vals/keys mismatch", base.ErrCorrupt)
		}
		return len(n.keys), 1, nil
	}
	if len(n.children) != len(n.keys)+1 {
		return 0, 0, fmt.Errorf("%w: children/keys mismatch", base.ErrCorrupt)
	}
	total := 0
	depth := 0
	for i, c := range n.children {
		clo, chi := lo, hi
		if i > 0 {
			clo = &n.keys[i-1]
		}
		if i < len(n.keys) {
			chi = &n.keys[i]
		}
		cnt, d, err := t.checkNode(c, clo, chi, false)
		if err != nil {
			return 0, 0, err
		}
		if depth == 0 {
			depth = d
		} else if d != depth {
			return 0, 0, fmt.Errorf("%w: uneven depth", base.ErrCorrupt)
		}
		total += cnt
	}
	return total, depth + 1, nil
}
