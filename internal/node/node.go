// Package node defines the B-link tree node model shared by the Sagiv
// tree, the Lehman–Yao baseline, and the compression processes: nodes
// with a high value and a right link (Lehman–Yao, §2.1), extended with
// the low value and the deletion bit the compression algorithm needs
// (§5.1), plus the prime block (§3.3), the fixed-size page codec, and
// two node stores (in-memory and paged-over-storage).
//
// A Node obtained from a Store is a snapshot whose structure never
// changes: its header, keys and children are immutable. To change
// them, edit into a fresh version (every edit below returns one) and
// Put it — the paper's "read the node, change the data and rewrite it"
// protocol, which is what makes get/put indivisible. The one mutable
// part is a leaf's value words: Store.SetValue overwrites one of them in
// the current version, under the leaf's lock, with a single atomic
// store, so a put that changes only a value is still indivisible (the
// before- and after-image differ in one aligned word). Readers outside
// the lock read values through Val.
package node

import (
	"fmt"

	"blinktree/internal/base"
)

// Node is one page of a B-link tree.
//
// Internal-node layout (paper Fig. 1): Children[j] roots the subtree
// holding keys v with sep(j-1) < v ≤ sep(j), where sep(-1) = Low and
// sep(len(Keys)) = High; so len(Children) == len(Keys)+1.
//
// Leaf layout: Keys[i] holds Vals[i]; len(Vals) == len(Keys). A leaf's
// High may exceed its largest key after deletions (paper footnote 7).
//
// New, Clone, Decode and every edit return a node in one block
// (block.go). A node built by a literal, with its slices apart, works
// the same.
type Node struct {
	ID      base.PageID
	Leaf    bool
	Root    bool        // the root bit of §3.3
	Deleted bool        // the deletion bit of §5.1
	OutLink base.PageID // when Deleted: the merge survivor to follow (§5.2 case 1)

	Low  base.Bound  // v₀: high value of the left neighbour, or −∞
	High base.Bound  // v_{i+1}: upper bound of this node's coverage, or +∞
	Link base.PageID // right neighbour at the same level; NilPage at the right edge

	Keys     []base.Key
	Vals     []base.Value  // leaves only
	Children []base.PageID // internal nodes only
}

// Clone returns a deep copy safe to mutate, in one block.
func (n *Node) Clone() *Node {
	c := n.resized(len(n.Keys), max(len(n.Vals), len(n.Children)))
	copy(c.Keys, n.Keys)
	copy(c.Vals, n.Vals)
	copy(c.Children, n.Children)
	return c
}

// insertInto fills dst, one longer than src, with src and v inserted at
// position i; removeFrom fills dst, one shorter, with src less src[i].
// The edits below allocate their result once, at its final size, and
// fill it with these.
func insertInto[T any](dst, src []T, i int, v T) {
	copy(dst, src[:i])
	dst[i] = v
	copy(dst[i+1:], src[i:])
}

func removeFrom[T any](dst, src []T, i int) {
	copy(dst, src[:i])
	copy(dst[i:], src[i+1:])
}

// Covers reports whether k belongs to this node's key range (Low, High].
func (n *Node) Covers(k base.Key) bool {
	return n.Low.Less(k) && n.High.GreaterEqual(k)
}

// HighLess reports whether the node's high value is smaller than k,
// i.e. the search for k must follow the link (paper §3.1).
func (n *Node) HighLess(k base.Key) bool { return n.High.Less(k) }

// Index returns the position of k in Keys and whether it is present.
func (n *Node) Index(k base.Key) (int, bool) {
	i := findKey(n.Keys, k)
	return i, i < len(n.Keys) && n.Keys[i] == k
}

// LeafFind returns the value stored under k in a leaf.
func (n *Node) LeafFind(k base.Key) (base.Value, bool) {
	if !n.Leaf {
		panic("node: LeafFind on internal node")
	}
	if i, ok := n.Index(k); ok {
		return n.Val(i), true
	}
	return 0, false
}

// ChildFor returns the child pointer to follow for k, assuming
// k ≤ High. This is the non-link half of the paper's next(A, v).
func (n *Node) ChildFor(k base.Key) base.PageID {
	if n.Leaf {
		panic("node: ChildFor on leaf")
	}
	return n.Children[findKey(n.Keys, k)]
}

// Next implements the paper's next(A, v): the link if v is beyond the
// high value, otherwise the child to descend into. followLink reports
// which case applied.
func (n *Node) Next(k base.Key) (next base.PageID, followLink bool) {
	if n.HighLess(k) {
		return n.Link, true
	}
	return n.ChildFor(k), false
}

// InsertLeafPair returns a copy of the leaf with (k, v) added. The key
// must be absent and the leaf must cover k.
func (n *Node) InsertLeafPair(k base.Key, v base.Value) *Node {
	i, ok := n.Index(k)
	if ok {
		panic(fmt.Sprintf("node: InsertLeafPair duplicate key %d", k))
	}
	c := n.resized(len(n.Keys)+1, len(n.Vals)+1)
	insertInto(c.Keys, n.Keys, i, k)
	insertInto(c.Vals, n.Vals, i, v)
	return c
}

// DeleteLeafPair returns a copy of the leaf with k removed, or nil if k
// is absent.
func (n *Node) DeleteLeafPair(k base.Key) *Node {
	i, ok := n.Index(k)
	if !ok {
		return nil
	}
	c := n.resized(len(n.Keys)-1, len(n.Vals)-1)
	removeFrom(c.Keys, n.Keys, i)
	removeFrom(c.Vals, n.Vals, i)
	return c
}

// InsertSeparator returns a copy of the internal node with separator sep
// and the pointer to the new right sibling inserted: sep goes
// immediately left of the smallest key greater than it, and child goes
// just right of sep (paper §3.1). The separator must be absent.
func (n *Node) InsertSeparator(sep base.Key, child base.PageID) (*Node, error) {
	if n.Leaf {
		panic("node: InsertSeparator on leaf")
	}
	i, ok := n.Index(sep)
	if ok {
		return nil, fmt.Errorf("%w: separator %d already present in node %d", base.ErrCorrupt, sep, n.ID)
	}
	c := n.resized(len(n.Keys)+1, len(n.Children)+1)
	insertInto(c.Keys, n.Keys, i, sep)
	insertInto(c.Children, n.Children, i+1, child)
	return c, nil
}

// RemoveSeparator returns a copy with Keys[i] and Children[i+1] removed —
// the compression step that deletes "the old high value of A and the
// pointer to B" from the parent (§5.2 case 1). The removed child is the
// one to the right of the separator.
func (n *Node) RemoveSeparator(i int) *Node {
	if n.Leaf {
		panic("node: RemoveSeparator on leaf")
	}
	c := n.resized(len(n.Keys)-1, len(n.Children)-1)
	removeFrom(c.Keys, n.Keys, i)
	removeFrom(c.Children, n.Children, i+1)
	return c
}

// Pairs returns the number of stored pairs: key/value pairs in a leaf,
// key/pointer pairs in an internal node (the paper counts an internal
// node's pairs as its separator count).
func (n *Node) Pairs() int { return len(n.Keys) }

// FindChild returns the index in Children of the pointer equal to id,
// or -1.
func (n *Node) FindChild(id base.PageID) int {
	for i, c := range n.Children {
		if c == id {
			return i
		}
	}
	return -1
}

// SeparatorAfter returns the bound that closes child index i's range:
// Keys[i] for all but the last child, High for the last.
func (n *Node) SeparatorAfter(i int) base.Bound {
	if i < len(n.Keys) {
		return base.FiniteBound(n.Keys[i])
	}
	return n.High
}

// SeparatorBefore returns the bound that opens child index i's range:
// Low for the first child, Keys[i-1] otherwise.
func (n *Node) SeparatorBefore(i int) base.Bound {
	if i == 0 {
		return n.Low
	}
	return base.FiniteBound(n.Keys[i-1])
}

// Split divides an over-full node (called with 2k+1 pairs, after the
// pending pair was added to a clone) into the retained left node and a
// fresh right node, following Fig. 3: the new right node B receives the
// upper half together with A's old high value and link; A keeps the
// lower half, its High becomes the separator, and its Link points to B.
// newID names B's page. The returned separator is A's new high value —
// the key to insert one level up.
//
// For internal nodes the middle key moves up exclusively (it becomes
// A.High and the parent separator but stays in neither half); for
// leaves it is retained in the left half, since leaf keys carry data.
func (n *Node) Split(newID base.PageID) (left, right *Node, sep base.Key) {
	if n.Pairs() < 2 {
		panic("node: Split of node with <2 pairs")
	}
	if n.Leaf {
		m := (len(n.Keys) + 1) / 2 // left keeps m pairs incl. separator key
		sep = n.Keys[m-1]
		left = n.resized(m, m)
		copy(left.Keys, n.Keys)
		copy(left.Vals, n.Vals)
		right = New(true, len(n.Keys)-m)
		copy(right.Keys, n.Keys[m:])
		copy(right.Vals, n.Vals[m:])
	} else {
		m := len(n.Keys) / 2 // Keys[m] moves up
		sep = n.Keys[m]
		left = n.resized(m, m+1)
		copy(left.Keys, n.Keys)
		copy(left.Children, n.Children)
		right = New(false, len(n.Keys)-m-1)
		copy(right.Keys, n.Keys[m+1:])
		copy(right.Children, n.Children[m+1:])
	}
	right.ID, right.High, right.Link = newID, n.High, n.Link
	right.Low = base.FiniteBound(sep)
	left.High = base.FiniteBound(sep)
	left.Link = newID
	left.Root = false // a split node is never the root afterwards
	return left, right, sep
}

// Validate performs local sanity checks on one node.
func (n *Node) Validate() error {
	for i := 1; i < len(n.Keys); i++ {
		if n.Keys[i-1] >= n.Keys[i] {
			return fmt.Errorf("%w: node %d keys out of order at %d", base.ErrCorrupt, n.ID, i)
		}
	}
	if len(n.Keys) > 0 {
		if !n.Low.Less(n.Keys[0]) {
			return fmt.Errorf("%w: node %d first key %d ≤ low %v", base.ErrCorrupt, n.ID, n.Keys[0], n.Low)
		}
		last := n.Keys[len(n.Keys)-1]
		if n.High.Less(last) {
			return fmt.Errorf("%w: node %d last key %d > high %v", base.ErrCorrupt, n.ID, last, n.High)
		}
	}
	if n.High.LessBound(n.Low) {
		return fmt.Errorf("%w: node %d high %v < low %v", base.ErrCorrupt, n.ID, n.High, n.Low)
	}
	if n.Leaf {
		if len(n.Vals) != len(n.Keys) {
			return fmt.Errorf("%w: leaf %d has %d vals for %d keys", base.ErrCorrupt, n.ID, len(n.Vals), len(n.Keys))
		}
		if len(n.Children) != 0 {
			return fmt.Errorf("%w: leaf %d has children", base.ErrCorrupt, n.ID)
		}
	} else {
		if len(n.Children) != len(n.Keys)+1 {
			return fmt.Errorf("%w: internal %d has %d children for %d keys", base.ErrCorrupt, n.ID, len(n.Children), len(n.Keys))
		}
		if len(n.Vals) != 0 {
			return fmt.Errorf("%w: internal %d has values", base.ErrCorrupt, n.ID)
		}
	}
	return nil
}

// String renders a compact diagnostic form.
func (n *Node) String() string {
	kind := "internal"
	if n.Leaf {
		kind = "leaf"
	}
	flags := ""
	if n.Root {
		flags += "R"
	}
	if n.Deleted {
		flags += "D"
	}
	return fmt.Sprintf("%s %d%s (%v,%v] link=%d keys=%v", kind, n.ID, flags, n.Low, n.High, n.Link, n.Keys)
}

// Prime is the prime block of §3.3: the entry point every operation
// reads first. Leftmost[i] is the leftmost node at level i (leaves are
// level 0); Leftmost[Levels-1] is the root.
type Prime struct {
	Root     base.PageID
	Levels   int
	Leftmost []base.PageID
}

// Clone returns a deep copy.
func (p Prime) Clone() Prime {
	p.Leftmost = append([]base.PageID(nil), p.Leftmost...)
	return p
}
